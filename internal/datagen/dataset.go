// Package datagen generates the synthetic networks the paper evaluates on:
// the weather sensor network of Appendix C, and a bibliographic network
// calibrated to the DBLP four-area dataset's schema and labeling. The real
// DBLP dataset is not redistributable, so Biblio substitutes a generated
// network with the same object types, relations, four labeled areas and
// text attribute, which is what the paper's AC and ACP experiments
// exercise.
package datagen

import (
	"fmt"

	"genclus/internal/hin"
)

// Dataset bundles a generated network with its ground truth.
type Dataset struct {
	Name string
	Net  *hin.Network
	// NumClusters is the ground-truth cluster count K.
	NumClusters int
	// Labels maps dense object index → ground-truth cluster for the labeled
	// subset (evaluation ignores unlabeled objects, mirroring the partially
	// labeled DBLP data).
	Labels map[int]int
	// TrueMembership, when the generator knows it (weather network), maps
	// dense object index → the generating soft membership vector.
	TrueMembership map[int][]float64
}

// LabeledOfType returns the labeled object indices of the given object type,
// in ascending index order.
func (d *Dataset) LabeledOfType(objType string) []int {
	var out []int
	for _, v := range d.Net.ObjectsOfType(objType) {
		if _, ok := d.Labels[v]; ok {
			out = append(out, v)
		}
	}
	return out
}

// Validate performs internal consistency checks; generators call it before
// returning and tests call it directly.
func (d *Dataset) Validate() error {
	if d.Net == nil {
		return fmt.Errorf("datagen: dataset %q has no network", d.Name)
	}
	if d.NumClusters <= 1 {
		return fmt.Errorf("datagen: dataset %q has K=%d, want > 1", d.Name, d.NumClusters)
	}
	for v, lab := range d.Labels {
		if v < 0 || v >= d.Net.NumObjects() {
			return fmt.Errorf("datagen: label on out-of-range object %d", v)
		}
		if lab < 0 || lab >= d.NumClusters {
			return fmt.Errorf("datagen: object %d labeled %d outside 0..%d", v, lab, d.NumClusters-1)
		}
	}
	for v, mem := range d.TrueMembership {
		if v < 0 || v >= d.Net.NumObjects() {
			return fmt.Errorf("datagen: membership on out-of-range object %d", v)
		}
		if len(mem) != d.NumClusters {
			return fmt.Errorf("datagen: object %d membership has %d components, want %d", v, len(mem), d.NumClusters)
		}
		var sum float64
		for _, p := range mem {
			if p < 0 {
				return fmt.Errorf("datagen: object %d has negative membership", v)
			}
			sum += p
		}
		if sum < 0.999 || sum > 1.001 {
			return fmt.Errorf("datagen: object %d membership sums to %v", v, sum)
		}
	}
	return nil
}

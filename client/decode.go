package client

import (
	"slices"

	"genclus/internal/jsonscan"
)

// decodeResult reads a job result document into out, which must be the
// zero Result. It reads the document in one pass on the shared JSON
// scanner and builds the value json.Unmarshal builds — nil and empty
// slices and maps included — except that a repeated recognised key is an
// error naming it. The objects' theta rows share one backing array, and
// their ids one string, so the decoded result keeps none of data alive.
func decodeResult(data []byte, out *Result) error {
	d := &resultDecoder{Scanner: jsonscan.Scanner{Data: data}}
	if err := d.Document("the job result", func() error { return d.result(out) }); err != nil {
		return err
	}
	if !d.objects {
		return nil
	}
	if d.thetas == nil {
		d.thetas = []float64{} // an empty theta row is [], not nil
	}
	ids := string(d.ids)
	out.Objects = make([]ObjectResult, len(d.staged))
	for i, st := range d.staged {
		o := &out.Objects[i]
		o.ID, o.Type, o.Cluster = ids[st.idStart:st.idEnd], st.typ, st.cluster
		if st.thetaSet {
			o.Theta = d.thetas[st.thetaStart:st.thetaEnd:st.thetaEnd]
		}
	}
	return nil
}

// resultDecoder stages a result's objects as it reads them: their ids in
// one byte slice, their theta rows in one float slice, and the rest in
// staged. objects records that "objects" was an array rather than null or
// absent.
type resultDecoder struct {
	jsonscan.Scanner
	ids     []byte
	thetas  []float64
	staged  []objectStage
	objects bool
}

// objectStage is one staged object: the offsets of its id and theta row
// in the staging slices (thetaSet is false for a row that was absent or
// null), its type and its cluster.
type objectStage struct {
	idStart, idEnd       int
	thetaStart, thetaEnd int
	thetaSet             bool
	typ                  string
	cluster              int
}

// reserve makes room for n more elements in s, doubling its capacity when
// it runs short: over a 12,000-object result, append's 1.25× growth of a
// large slice would copy and clear about five times the slice's final
// size, doubling about twice.
func reserve[T any](s []T, n int) []T {
	if cap(s)-len(s) < n {
		s = slices.Grow(s, len(s)+n)
	}
	return s
}

var (
	resultFields  = jsonscan.NewFields("id", "k", "objects", "gamma", "objective", "pseudo_ll", "em_iterations", "outer_iterations", "metrics")
	objectFields  = jsonscan.NewFields("id", "type", "cluster", "theta")
	metricsFields = jsonscan.NewFields("nmi", "ari", "purity", "labeled_objects")
)

func (d *resultDecoder) result(out *Result) error {
	return d.Object(resultFields, 1, func(f int) (err error) {
		switch f {
		case 0:
			var tok jsonscan.Span
			if tok, err = d.StringValue("id"); err == nil {
				out.ID = d.Text(tok)
			}
		case 1:
			out.K, err = d.Int("k")
		case 2:
			d.objects = d.Peek() == '['
			err = d.Array(2, "objects", func(depth int, null bool) error {
				d.staged = append(reserve(d.staged, 1), objectStage{idStart: len(d.ids), idEnd: len(d.ids)})
				if null {
					return nil
				}
				return d.object(depth, &d.staged[len(d.staged)-1])
			})
		case 3:
			if d.Peek() == '{' {
				out.Gamma = make(map[string]float64)
			}
			err = d.Map("gamma", d.Text, func(rel string) error {
				x, err := d.Float("gamma")
				out.Gamma[rel] = x
				return err
			})
		case 4:
			out.Objective, err = d.Float("objective")
		case 5:
			out.PseudoLL, err = d.Float("pseudo_ll")
		case 6:
			out.EMIterations, err = d.Int("em_iterations")
		case 7:
			out.OuterIterations, err = d.Int("outer_iterations")
		default:
			err = d.metrics(&out.Metrics)
		}
		return err
	})
}

// object reads one element of "objects" after its '{'.
func (d *resultDecoder) object(depth int, st *objectStage) error {
	return d.Object(objectFields, depth, func(f int) (err error) {
		var tok jsonscan.Span
		switch f {
		case 0:
			if tok, err = d.StringValue("id"); err == nil {
				d.ids = append(reserve(d.ids, tok.End-tok.Start), d.Bytes(tok)...)
				st.idEnd = len(d.ids)
			}
		case 1:
			if tok, err = d.StringValue("type"); err == nil {
				st.typ = d.Intern(tok)
			}
		case 2:
			st.cluster, err = d.Int("cluster")
		default:
			var null bool
			st.thetaStart = len(d.thetas)
			d.thetas, null, err = d.ReadFloats(reserve(d.thetas, 16), "theta")
			st.thetaEnd, st.thetaSet = len(d.thetas), !null
		}
		return err
	})
}

// metrics reads the "metrics" object, or null, which leaves *m nil.
func (d *resultDecoder) metrics(m **Metrics) error {
	switch d.Peek() {
	case 'n':
		return d.Literal("null")
	case '{':
	default:
		return d.Mismatch("metrics", "an object")
	}
	d.Pos++
	mt := new(Metrics)
	*m = mt
	return d.Object(metricsFields, 2, func(f int) (err error) {
		switch f {
		case 0:
			mt.NMI, err = d.Float("nmi")
		case 1:
			mt.ARI, err = d.Float("ari")
		case 2:
			mt.Purity, err = d.Float("purity")
		default:
			mt.Labeled, err = d.Int("labeled_objects")
		}
		return err
	})
}

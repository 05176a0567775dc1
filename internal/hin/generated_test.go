package hin_test

import (
	"testing"

	"genclus/internal/datagen"
	"genclus/internal/hin"
)

// TestDecodeGeneratedMatchesReference checks the one-pass decoder against
// the reference on small generated A–C–P and weather Setting 1 documents,
// the shapes genclusd uploads in practice.
func TestDecodeGeneratedMatchesReference(t *testing.T) {
	acp := datagen.DefaultBiblioConfig(datagen.SchemaACP, 3)
	acp.NumAuthors, acp.NumPapers = 120, 180
	gens := map[string]func() (*datagen.Dataset, error){
		"acp":     func() (*datagen.Dataset, error) { return datagen.Biblio(acp) },
		"weather": func() (*datagen.Dataset, error) { return datagen.Weather(datagen.WeatherSetting1(60, 60, 5, 3)) },
	}
	for name, gen := range gens {
		t.Run(name, func(t *testing.T) {
			ds, err := gen()
			if err != nil {
				t.Fatal(err)
			}
			doc, err := ds.Net.MarshalJSON()
			if err != nil {
				t.Fatal(err)
			}
			for _, lim := range []hin.Limits{{}, {MaxObjects: 100}, {MaxObservations: 500}} {
				hin.CheckDecodeMatchesReference(t, doc, lim)
			}
		})
	}
}

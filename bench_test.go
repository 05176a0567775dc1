// Benchmarks of the library's end-to-end paths: a full fit on each data
// family, the weather generator and the link-prediction evaluation. The
// paper's experiments run through cmd/experiments (full-scale numbers in
// EXPERIMENTS.md) and their quality values are diffed exactly by
// internal/bench's TestQualityLedger.
package genclus_test

import (
	"testing"

	"genclus"
)

// BenchmarkFitWeather measures a full GenClus fit on a mid-size weather
// network — the end-to-end number a library user cares about.
func BenchmarkFitWeather(b *testing.B) {
	ds, err := genclus.GenerateWeather(genclus.WeatherSetting1(200, 100, 5, 1))
	if err != nil {
		b.Fatal(err)
	}
	opts := genclus.DefaultOptions(4)
	opts.OuterIters = 3
	opts.EMIters = 5
	opts.InitSeeds = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts.Seed = int64(i)
		if _, err := genclus.Fit(ds.Net, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFitBibliographic measures a full fit on a small ACP network.
func BenchmarkFitBibliographic(b *testing.B) {
	cfg := genclus.DefaultBiblioConfig(genclus.SchemaACP, 1)
	cfg.NumAuthors = 120
	cfg.NumPapers = 200
	cfg.LabeledPapers = 20
	ds, err := genclus.GenerateBibliographic(cfg)
	if err != nil {
		b.Fatal(err)
	}
	opts := genclus.DefaultOptions(4)
	opts.OuterIters = 3
	opts.EMIters = 5
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts.Seed = int64(i)
		if _, err := genclus.Fit(ds.Net, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGenerateWeather isolates the Appendix C generator (kd-tree kNN
// construction dominates).
func BenchmarkGenerateWeather(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := genclus.GenerateWeather(genclus.WeatherSetting1(500, 250, 5, int64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLinkPredictionMAP isolates the §5.2.2 evaluation path.
func BenchmarkLinkPredictionMAP(b *testing.B) {
	ds, err := genclus.GenerateWeather(genclus.WeatherSetting1(200, 100, 3, 1))
	if err != nil {
		b.Fatal(err)
	}
	opts := genclus.DefaultOptions(4)
	opts.OuterIters = 2
	opts.EMIters = 3
	opts.InitSeeds = 1
	res, err := genclus.Fit(ds.Net, opts)
	if err != nil {
		b.Fatal(err)
	}
	sim := genclus.Similarities()[2]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := genclus.LinkPredictionMAP(ds.Net, res.Theta, "<T,P>", sim); err != nil {
			b.Fatal(err)
		}
	}
}

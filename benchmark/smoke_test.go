package main

import (
	"context"
	"testing"
	"time"
)

// TestSmoke runs every workload traced at tiny scale against a freshly
// built daemon: every correctness check must pass and every declared
// metric, end-to-end and per-layer, must come out.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts daemons")
	}
	bin, err := buildDaemon("..", t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	host := currentHost()
	for _, w := range workloads {
		t.Run(w, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			r, err := execute(ctx, config{
				workload: w, seed: 3, window: 500 * time.Millisecond, trace: true,
				sc: smokeScale, bin: bin, workDir: t.TempDir(),
			})
			if err != nil {
				t.Fatal(err)
			}
			rec, err := r.finish(host, 0.5, true)
			if err != nil {
				t.Fatal(err)
			}
			if !rec.Result.Correct {
				t.Fatalf("checks failed: %v", r.violations)
			}
			if _, missing := pick(endToEnd, r.e2e); len(missing) > 0 {
				t.Errorf("no end-to-end value for %v", missing)
			}
			if len(rec.Result.Metrics) != len(perLayer) {
				t.Errorf("traced run printed %d metrics, want the %d per-layer ones", len(rec.Result.Metrics), len(perLayer))
			}
			if rec.Result.Attempted < 1 || rec.Result.Failed != 0 {
				t.Errorf("attempted %d, failed %d", rec.Result.Attempted, rec.Result.Failed)
			}
			if len(r.rec.all()) == 0 {
				t.Error("traced run recorded no spans")
			}
		})
	}
}

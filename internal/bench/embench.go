package bench

import (
	"fmt"
	"math/rand"

	"genclus/internal/core"
	"genclus/internal/hin"
)

// EMBenchNetwork builds the deterministic mid-size synthetic network the
// EM-iteration benchmark runs on: 4000 docs over four topics, two link
// types (within-topic "cites" and uniform "refs"), a 200-term categorical
// attribute on 80% of the objects and a numeric attribute on a third —
// link-heavy enough that the E-step's link walk dominates, attribute-rich
// enough that every accumulator kind participates.
func EMBenchNetwork() (*hin.Network, error) {
	rng := rand.New(rand.NewSource(7))
	b := hin.NewBuilder()
	b.DeclareAttribute(hin.AttrSpec{Name: "text", Kind: hin.Categorical, VocabSize: 200})
	b.DeclareAttribute(hin.AttrSpec{Name: "score", Kind: hin.Numeric})
	const n = 4000
	const topics = 4
	ids := make([]string, n)
	for i := 0; i < n; i++ {
		ids[i] = fmt.Sprintf("d%05d", i)
		b.AddObject(ids[i], "doc")
		topic := i % topics
		if i%5 != 0 { // 80% carry text
			for w := 0; w < 6; w++ {
				b.AddTermCount(ids[i], "text", topic*50+rng.Intn(50), 1)
			}
		}
		if i%3 == 0 { // a third carry the numeric attribute
			b.AddNumeric(ids[i], "score", float64(topic*10)+rng.NormFloat64())
		}
	}
	perTopic := n / topics
	for i := 0; i < n; i++ {
		topic := i % topics
		for c := 0; c < 4; c++ {
			j := topic + topics*rng.Intn(perTopic)
			if j != i {
				b.AddLink(ids[i], ids[j], "cites", 1)
			}
		}
		for c := 0; c < 2; c++ {
			j := rng.Intn(n)
			if j != i {
				b.AddLink(ids[i], ids[j], "refs", 0.5)
			}
		}
	}
	return b.Build()
}

// NewEMHarness builds the EMBenchNetwork, prepares a core.EMHarness on it
// with the paper-default options at K=4 (single seed) and the given EM
// worker count, and runs warm-up iterations so the first measured iteration
// is already in the zero-alloc steady state. It is the fixture behind
// BenchmarkEMIteration, its per-parallelism series (em-iteration/midsize-p4,
// -p16), the strength-step and objective benchmarks, and the zero-alloc
// tests. Parallelism changes only the wall clock, never the results; Close
// the harness to stop its worker pool.
func NewEMHarness(parallelism int) (*core.EMHarness, error) {
	net, err := EMBenchNetwork()
	if err != nil {
		return nil, err
	}
	opts := core.DefaultOptions(4)
	opts.Seed = 1
	opts.InitSeeds = 1
	opts.Parallelism = parallelism
	h, err := core.NewEMHarness(net, opts)
	if err != nil {
		return nil, err
	}
	for i := 0; i < 3; i++ {
		h.RunIteration()
	}
	return h, nil
}

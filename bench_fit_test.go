// The performance ledger's benchmarks. Each one writes its own keys of
// BENCH_fit.json at the repo root (or GENCLUS_BENCH_OUT), and leaves the
// other benchmarks' keys as they are. README.md's Performance section
// holds the command that regenerates every key and one row per key.
package genclus_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"genclus"
	"genclus/client"
	"genclus/internal/bench"
	"genclus/internal/core"
	"genclus/internal/datagen"
	"genclus/internal/infer"
	"genclus/internal/infer/infertest"
	"genclus/internal/server"
)

// benchFitEntry is one measurement in BENCH_fit.json.
type benchFitEntry struct {
	NsPerOp      int64  `json:"ns_per_op"`
	Iterations   int    `json:"benchmark_iterations"`
	EMIterations int    `json:"em_iterations,omitempty"` // EM work of one fit — the hardware-independent number
	AllocsPerOp  *int64 `json:"allocs_per_op,omitempty"` // set by every benchmark that records through recordOp
}

// mergeBenchFile folds entries into BENCH_fit.json (or GENCLUS_BENCH_OUT),
// keeping the keys owned by other benchmarks intact so the benchmarks can
// run in any order, or alone, without clobbering each other's committed
// numbers. owned declares which existing keys belong to the calling
// benchmark: they are dropped before the merge, so a renamed or removed
// scenario cannot leave a stale orphan behind. A file that exists but does
// not parse (a merge conflict, say) fails the benchmark and stays as it
// is, since rewriting it would drop every other benchmark's keys.
func mergeBenchFile(b *testing.B, owned func(key string) bool, entries map[string]benchFitEntry) {
	path := os.Getenv("GENCLUS_BENCH_OUT")
	if path == "" {
		path = "BENCH_fit.json"
	}
	out := make(map[string]benchFitEntry)
	data, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(data, &out); err != nil {
			b.Fatalf("%s does not parse, so it is left as it is: %v", path, err)
		}
	case !errors.Is(err, fs.ErrNotExist):
		b.Fatalf("read %s: %v", path, err)
	}
	for k := range out {
		if owned(k) {
			delete(out, k)
		}
	}
	for k, v := range entries {
		out[k] = v
	}
	data, err = json.MarshalIndent(out, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		b.Fatalf("write %s: %v", path, err)
	}
	b.Logf("wrote %s", path)
}

// recordOp times op as the benchmark's op and records its ns/op and
// allocs/op in BENCH_fit.json under key, the one key the calling benchmark
// owns there. allocs/op is testing.AllocsPerRun over allocRuns calls of op.
// The timed loop makes b.N calls of op from clients closed-loop goroutines,
// so with clients > 1 ns/op is wall time per op under that load; op may
// then run concurrently and must report failures with b.Error, not b.Fatal.
func recordOp(b *testing.B, key string, allocRuns, clients int, op func()) {
	allocs := int64(testing.AllocsPerRun(allocRuns, op))
	b.ReportAllocs()
	b.ResetTimer()
	if clients == 1 {
		for i := 0; i < b.N; i++ {
			op()
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for next.Add(1) <= int64(b.N) && !b.Failed() {
					op()
				}
			}()
		}
		wg.Wait()
	}
	b.StopTimer()
	if b.Failed() {
		return
	}
	nsPerOp := int64(0)
	if b.N > 0 {
		nsPerOp = b.Elapsed().Nanoseconds() / int64(b.N)
	}
	mergeBenchFile(b, func(k string) bool { return k == key }, map[string]benchFitEntry{
		key: {NsPerOp: nsPerOp, Iterations: b.N, AllocsPerOp: &allocs},
	})
}

// benchFitScenario pairs the network a model is first fitted on (base) with
// the network the measured fits run on (target). For the unchanged-network
// scenarios the two are the same; the grown scenario refits onto a network
// that gained 5% new objects.
type benchFitScenario struct {
	name   string
	base   *genclus.Network
	target *genclus.Network
	opts   genclus.Options
}

// benchDocNet builds the deterministic two-topic citation network used by
// the grown-network scenario: perTopic docs per topic with disjoint
// vocabulary blocks and within-topic links, plus extra docs per topic
// appended after the (bit-identical) base structure.
func benchDocNet(b *testing.B, perTopic, extra int) *genclus.Network {
	bl := genclus.NewBuilder()
	bl.DeclareAttribute(genclus.AttrSpec{Name: "text", Kind: genclus.Categorical, VocabSize: 40})
	add := func(topic, i int, tag string) string {
		id := fmt.Sprintf("%s%d_%04d", tag, topic, i)
		bl.AddObject(id, "doc")
		for w := 0; w < 10; w++ {
			bl.AddTermCount(id, "text", topic*20+(i+w)%20, 1)
		}
		return id
	}
	for topic := 0; topic < 2; topic++ {
		ids := make([]string, perTopic)
		for i := range ids {
			ids[i] = add(topic, i, "doc")
		}
		for i, id := range ids {
			bl.AddLink(id, ids[(i+1)%perTopic], "cites", 1)
			bl.AddLink(id, ids[(i+7)%perTopic], "cites", 1)
		}
		for i := 0; i < extra; i++ {
			id := add(topic, i, "new")
			bl.AddLink(id, ids[i%perTopic], "cites", 1)
			bl.AddLink(id, ids[(i+3)%perTopic], "cites", 1)
		}
	}
	net, err := bl.Build()
	if err != nil {
		b.Fatal(err)
	}
	return net
}

func benchFitScenarios(b *testing.B) []benchFitScenario {
	weather, err := genclus.GenerateWeather(genclus.WeatherSetting1(200, 100, 5, 1))
	if err != nil {
		b.Fatal(err)
	}
	biblioCfg := genclus.DefaultBiblioConfig(genclus.SchemaACP, 1)
	biblioCfg.NumAuthors = 120
	biblioCfg.NumPapers = 200
	biblioCfg.LabeledPapers = 20
	biblio, err := genclus.GenerateBibliographic(biblioCfg)
	if err != nil {
		b.Fatal(err)
	}
	opts := func(k int) genclus.Options {
		o := genclus.DefaultOptions(k)
		o.OuterIters = 10
		o.EMIters = 15
		o.EMTol = 1e-6
		o.OuterTol = 1e-6
		o.Seed = 1
		return o
	}
	docsBase := benchDocNet(b, 250, 0)
	docsGrown := benchDocNet(b, 250, 13) // +26 docs on 500 = ~5%
	return []benchFitScenario{
		{name: "weather", base: weather.Net, target: weather.Net, opts: opts(weather.NumClusters)},
		{name: "biblio", base: biblio.Net, target: biblio.Net, opts: opts(biblio.NumClusters)},
		{name: "docs-grown5pct", base: docsBase, target: docsGrown, opts: opts(2)},
	}
}

// BenchmarkFitRefit measures, per scenario, a cold Fit of the target
// network and a Model.Refit onto it from a model fitted on the base
// network (same network for the unchanged scenarios, a 5%-grown one for
// docs-grown5pct). Sub-benchmark timings are collected and written to
// BENCH_fit.json (override the path with GENCLUS_BENCH_OUT); the write is
// skipped when -bench filtering dropped any sub-benchmark, so a partial
// run cannot clobber the committed baseline.
func BenchmarkFitRefit(b *testing.B) {
	out := make(map[string]benchFitEntry)
	record := func(name string, b *testing.B, emIters int) {
		nsPerOp := int64(0)
		if b.N > 0 {
			nsPerOp = b.Elapsed().Nanoseconds() / int64(b.N)
		}
		out[name] = benchFitEntry{NsPerOp: nsPerOp, Iterations: b.N, EMIterations: emIters}
	}

	scenarios := benchFitScenarios(b)
	for _, sc := range scenarios {
		model, err := genclus.Fit(sc.base, sc.opts)
		if err != nil {
			b.Fatal(err)
		}

		b.Run(sc.name+"/cold", func(b *testing.B) {
			em := 0
			for i := 0; i < b.N; i++ {
				res, err := genclus.Fit(sc.target, sc.opts)
				if err != nil {
					b.Fatal(err)
				}
				em = res.EMIterations
			}
			b.StopTimer()
			b.ReportMetric(float64(em), "em-iters")
			record(sc.name+"/cold", b, em)
		})

		b.Run(sc.name+"/refit", func(b *testing.B) {
			em := 0
			for i := 0; i < b.N; i++ {
				res, err := model.Refit(sc.target, genclus.DefaultOptions(sc.opts.K))
				if err != nil {
					b.Fatal(err)
				}
				em = res.EMIterations
			}
			b.StopTimer()
			b.ReportMetric(float64(em), "em-iters")
			record(sc.name+"/refit", b, em)
		})
	}

	if len(out) != 2*len(scenarios) {
		b.Logf("skipping BENCH_fit.json write: %d of %d sub-benchmarks ran (filtered run)", len(out), 2*len(scenarios))
		return
	}
	// This benchmark owns the "<scenario>/cold" and "<scenario>/refit"
	// key family — matched by shape rather than by the current scenario
	// list, so a renamed scenario's old keys are still cleaned up, while
	// key families owned by other benchmarks survive untouched.
	mergeBenchFile(b, func(key string) bool {
		return !strings.HasPrefix(key, "em-iteration/") &&
			(strings.HasSuffix(key, "/cold") || strings.HasSuffix(key, "/refit"))
	}, out)
}

// BenchmarkAssignBatch measures the online inference subsystem's steady
// state: one engine pass over a 64-query batch — each query a realistic
// mix of links into the known network and a sparse text observation —
// against a model fitted on the mid-size two-topic citation network.
// Allocations are the headline: after the first pass sizes the engine's
// arena, AssignBatch must stay at 0 allocs/op
// (TestAssignBatchSteadyStateZeroAlloc pins the same invariant as a
// test). The measurement lands in BENCH_fit.json under
// "assign-batch/midsize" and is enforced by the CI bench-regression gate.
func BenchmarkAssignBatch(b *testing.B) {
	net := benchDocNet(b, 250, 0)
	opts := genclus.DefaultOptions(2)
	opts.OuterIters = 5
	opts.EMIters = 10
	opts.EMTol = 1e-6
	opts.Seed = 1
	model, err := genclus.Fit(net, opts)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := genclus.NewAssigner(model, genclus.AssignOptions{TopK: 2})
	if err != nil {
		b.Fatal(err)
	}
	// 64 queries rebuilt from training objects: two citation links plus the
	// object's sparse term counts, presented by ID like real traffic.
	queries := make([]genclus.AssignQuery, 64)
	for i := range queries {
		v := (i * 7) % net.NumObjects()
		q := genclus.AssignQuery{ID: net.Object(v).ID}
		for _, e := range net.OutEdges(v) {
			q.Links = append(q.Links, genclus.AssignLink{
				Relation: net.RelationName(e.Rel),
				To:       net.Object(e.To).ID,
				Weight:   e.Weight,
			})
		}
		if tcs := net.TermCounts(0, v); len(tcs) > 0 {
			q.Terms = []genclus.AssignCatObs{{Attr: "text", Terms: tcs}}
		}
		queries[i] = q
	}
	run := func() {
		if _, err := eng.AssignBatch(queries); err != nil {
			b.Fatal(err)
		}
	}
	run() // warm-up sizes the arena
	recordOp(b, "assign-batch/midsize", 5, 1, run)
}

// BenchmarkAssignHTTP measures one POST /v1/models/{id}/assign of 8
// objects against an in-process genclusd (httptest, default Config) on the
// model BenchmarkAssignBatch scores directly: the HTTP round trip, request
// middleware, admission control, the engine lock, the engine pass and the
// JSON response. "c1" is one closed-loop client, so ns/op is its request
// latency; "c2" runs two, so ns/op is wall time per request under
// concurrent load. allocs/op counts every allocation in the process,
// client side included, over requests made one at a time. The results land in BENCH_fit.json as
// "serve/assign-http" and "serve/assign-http-c2". Loopback latency varies
// with the host's load, so CI runs this without a regression gate.
func BenchmarkAssignHTTP(b *testing.B) {
	ts, modelID, bodies := benchAssignDaemon(b)
	url := ts.URL + "/v1/models/" + modelID + "/assign"
	for _, clients := range []int{1, 2} {
		b.Run(fmt.Sprintf("c%d", clients), func(b *testing.B) {
			var next atomic.Int64
			post := func() {
				body := bodies[(next.Add(1)-1)%int64(len(bodies))]
				resp, err := ts.Client().Post(url, "application/json", bytes.NewReader(body))
				if err != nil {
					b.Error(err)
					return
				}
				defer resp.Body.Close()
				if _, err := io.Copy(io.Discard, resp.Body); err != nil {
					b.Error(err)
				} else if resp.StatusCode != http.StatusOK {
					b.Errorf("assign: status %d", resp.StatusCode)
				}
			}
			post() // warm-up sizes the engine arena
			key := "serve/assign-http"
			if clients > 1 {
				key += fmt.Sprintf("-c%d", clients)
			}
			recordOp(b, key, 5, clients, post)
		})
	}
}

// benchAssignDaemon starts genclusd behind httptest, fits
// BenchmarkAssignBatch's model through the SDK, and returns the server, the
// model id and eight 8-object request bodies that cover the same 64 queries
// (links plus sparse term counts of training objects).
func benchAssignDaemon(b *testing.B) (*httptest.Server, string, [][]byte) {
	s, err := server.New(server.Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	b.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	ctx := context.Background()
	c := client.New(ts.URL, client.WithHTTPClient(ts.Client()))
	net := benchDocNet(b, 250, 0)
	info, err := c.UploadNetwork(ctx, net)
	if err != nil {
		b.Fatal(err)
	}
	outer, emIters, emTol, seed := 5, 10, 1e-6, int64(1)
	job, err := c.SubmitJob(ctx, client.JobSpec{NetworkID: info.ID, K: 2, Options: &client.JobOptions{
		OuterIters: &outer, EMIters: &emIters, EMTol: &emTol, Seed: &seed,
	}})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := c.WaitForResult(ctx, job.ID); err != nil {
		b.Fatal(err)
	}
	status, err := c.JobStatus(ctx, job.ID)
	if err != nil {
		b.Fatal(err)
	}
	bodies := make([][]byte, 8)
	for j := range bodies {
		req := client.AssignRequest{TopK: 2}
		for i := 8 * j; i < 8*j+8; i++ {
			v := (i * 7) % net.NumObjects()
			obj := client.AssignObject{ID: net.Object(v).ID}
			for _, e := range net.OutEdges(v) {
				obj.Links = append(obj.Links, client.AssignLink{
					Relation: net.RelationName(e.Rel),
					To:       net.Object(e.To).ID,
					Weight:   e.Weight,
				})
			}
			var terms []client.AssignTermCount
			for _, tc := range net.TermCounts(0, v) {
				terms = append(terms, client.AssignTermCount{Term: tc.Term, Count: tc.Count})
			}
			if len(terms) > 0 {
				obj.Terms = map[string][]client.AssignTermCount{"text": terms}
			}
			req.Objects = append(req.Objects, obj)
		}
		if bodies[j], err = json.Marshal(req); err != nil {
			b.Fatal(err)
		}
	}
	return ts, status.ModelID, bodies
}

// BenchmarkEMIteration measures one steady-state E+M pass of the EM hot
// path on the mid-size synthetic network (4000 objects, ~24k links, two
// relations, K=4): one link pass over each object's run of the sorted
// edge list, then the attribute and normalization passes, all in
// preallocated scratch. Allocations are the headline: the steady state
// must stay at 0 allocs/op (TestEMIterationSteadyStateZeroAlloc enforces
// the same invariant as a test). The measurement lands in BENCH_fit.json
// under "em-iteration/midsize".
func BenchmarkEMIteration(b *testing.B) {
	h, err := bench.NewEMHarness(1)
	if err != nil {
		b.Fatal(err)
	}
	recordOp(b, "em-iteration/midsize", 5, 1, h.RunIteration)
}

// BenchmarkEMIterationParallel measures the same steady-state E+M pass under
// the persistent worker pool at P=4 and 16 — the NUMA-scale throughput
// series; BenchmarkEMIteration is its P=1 point. Results are bitwise
// identical at every width (the reduction runs over fixed chunks merged in
// chunk order; TestFitGoldenBitwiseChecksum pins it), so the series
// measures pure scheduling overhead and scaling. The points land in
// BENCH_fit.json as "em-iteration/midsize-p4" and "-p16" with the same 0
// allocs/op contract as the serial key. Note the committed numbers are only
// meaningful on hosts with at least as many cores as the width — on
// smaller hosts the wide points measure oversubscription, which is why the
// benchgate CI series gates regressions per key instead of asserting a
// scaling ratio.
func BenchmarkEMIterationParallel(b *testing.B) {
	for _, p := range []int{4, 16} {
		b.Run(fmt.Sprintf("p%d", p), func(b *testing.B) {
			h, err := bench.NewEMHarness(p)
			if err != nil {
				b.Fatal(err)
			}
			defer h.Close()
			recordOp(b, fmt.Sprintf("em-iteration/midsize-p%d", p), 5, 1, h.RunIteration)
		})
	}
}

// BenchmarkStrengthStep measures one relation-strength step — the
// safeguarded Newton iteration on g′₂ with Θ fixed (paper §4.2) — on the
// mid-size EM-bench fixture after three warm-up EM iterations, at P=1 and
// P=2. Every run starts from the same γ, so each repeats the same Newton
// iterations and line-search trials. The per-object Lgamma/ψ/ψ′ terms run on
// the worker pool and the folds stay serial, so both widths compute the
// same bits. The results land in BENCH_fit.json as
// "outer-iteration/strength" (P=1) and "outer-iteration/strength-p2". Once
// the warm-up has sized the strength scratch the step allocates nothing —
// the nRel×nRel Newton solve works in place — and CI pins 0 allocs/op.
func BenchmarkStrengthStep(b *testing.B) {
	for _, p := range []int{1, 2} {
		b.Run(fmt.Sprintf("p%d", p), func(b *testing.B) {
			h, err := bench.NewEMHarness(p)
			if err != nil {
				b.Fatal(err)
			}
			defer h.Close()
			h.RunStrengthStep() // warm-up sizes the strength scratch
			key := "outer-iteration/strength"
			if p > 1 {
				key += fmt.Sprintf("-p%d", p)
			}
			recordOp(b, key, 5, 1, h.RunStrengthStep)
		})
	}
}

// benchObjective keeps BenchmarkObjective's result observable.
var benchObjective float64

// BenchmarkObjective measures one evaluation of the cluster-optimization
// objective g₁ (Eq. 9) — a pass over every edge and observation, which a
// fit makes once per best-of-seeds candidate and once per reported outer
// iteration — on the mid-size EM-bench fixture after three warm-up EM
// iterations, at P=1 and P=2. The per-edge and per-observation terms run on
// the worker pool and the folds stay serial, so both widths compute the
// same bits. The results land in BENCH_fit.json as "objective/g1" (P=1) and
// "objective/g1-p2"; once the first call has sized the term slots an
// evaluation allocates nothing, and CI pins 0 allocs/op.
func BenchmarkObjective(b *testing.B) {
	for _, p := range []int{1, 2} {
		b.Run(fmt.Sprintf("p%d", p), func(b *testing.B) {
			h, err := bench.NewEMHarness(p)
			if err != nil {
				b.Fatal(err)
			}
			defer h.Close()
			h.RunObjective() // warm-up sizes the term slots
			key := "objective/g1"
			if p > 1 {
				key += fmt.Sprintf("-p%d", p)
			}
			recordOp(b, key, 5, 1, func() { benchObjective = h.RunObjective() })
		})
	}
}

// BenchmarkEMPhase measures the passes an EM iteration is made of, each
// alone over every chunk of a fixture (serial, after three warm-up
// iterations), through core.EMHarness.RunEMPhase: the link pass, the
// categorical attribute pass, the normalization pass and the merge of the
// chunks' statistics. On the mid-size EM-bench fixture at K=4 they land
// in BENCH_fit.json as "em-phase/link", "em-phase/cat",
// "em-phase/normalize" and "em-phase/merge"; on AVX2 hosts the first three
// run the packed K=4 kernels. The same fixture at K=2 times the K=2 link
// and categorical kernels ("em-phase/link-k2", "em-phase/cat-k2"). The
// merge on the A–C–P fixture ("em-phase/merge-acp") skips the chunks whose
// attribute-free authors observe nothing, which the mid-size fixture, where
// every chunk observes every attribute, never does. No pass allocates, and
// CI pins each key at 0 allocs/op.
func BenchmarkEMPhase(b *testing.B) {
	harness := func(h *core.EMHarness, err error) *core.EMHarness {
		if err != nil {
			b.Fatal(err)
		}
		return h
	}
	midsize := harness(bench.NewEMHarness(1))
	k2 := harness(bench.NewK2EMHarness(1))
	acp := harness(bench.NewACPEMHarness(1))
	for _, tc := range []struct {
		name  string
		h     *core.EMHarness
		phase core.EMPhase
	}{
		{"link", midsize, core.EMPhaseLink},
		{"cat", midsize, core.EMPhaseCat},
		{"normalize", midsize, core.EMPhaseNormalize},
		{"merge", midsize, core.EMPhaseMerge},
		{"link-k2", k2, core.EMPhaseLink},
		{"cat-k2", k2, core.EMPhaseCat},
		{"merge-acp", acp, core.EMPhaseMerge},
	} {
		b.Run(tc.name, func(b *testing.B) {
			recordOp(b, "em-phase/"+tc.name, 5, 1, func() { tc.h.RunEMPhase(tc.phase) })
		})
	}
}

// BenchmarkWeather measures the two Gaussian hot paths of a weather fit on
// the Setting 1 EM harness (bench.NewWeatherEMHarness: 2,000 sensors, 20
// readings each, K=4, serial): one steady-state E+M pass ("em-iteration")
// and one evaluation of g₁ ("objective"), each after three warm-up EM
// iterations. The E-step there is almost all Gaussian responsibilities and
// g₁ almost all per-reading mixture terms, so these keys move with the
// Gaussian kernels and the exponential per reading; the midsize fixture's
// Gaussian pass, 61% of its EM iteration, is mostly the per-object cost of
// one reading per numeric object. The results land in BENCH_fit.json as
// "em-iteration/weather" and "objective/g1-weather", and CI pins both at
// 0 allocs/op.
func BenchmarkWeather(b *testing.B) {
	h, err := bench.NewWeatherEMHarness(1)
	if err != nil {
		b.Fatal(err)
	}
	h.RunObjective() // warm-up sizes the term slots
	for _, tc := range []struct {
		name, key string
		run       func()
	}{
		{"em-iteration", "em-iteration/weather", h.RunIteration},
		{"objective", "objective/g1-weather", func() { benchObjective = h.RunObjective() }},
	} {
		b.Run(tc.name, func(b *testing.B) {
			recordOp(b, tc.key, 5, 1, tc.run)
		})
	}
}

// benchNetwork keeps BenchmarkDecodeNetwork's result observable.
var benchNetwork *genclus.Network

// BenchmarkDecodeNetwork measures the upload path's decode: one
// FromJSONLimited call, under the library's default limits, on a network
// document generated in the test from a fixed seed. "acp" is shaped like a
// fit-acp upload (A–C–P schema, 4,800 authors, 7,200 papers, 20 venues)
// and "weather" like a fit-weather upload (Setting 1, 1,000 + 1,000
// sensors, 20 observations each). The results land in BENCH_fit.json as
// "hin/decode" and "hin/decode-weather", with allocs/op: a decode
// allocates per object and per distinct string, never per link or
// observation. Go map growth moves the count by a few, so CI gates it
// at +1%.
func BenchmarkDecodeNetwork(b *testing.B) {
	acp := datagen.DefaultBiblioConfig(datagen.SchemaACP, 1)
	acp.NumAuthors, acp.NumPapers = 4800, 7200
	cases := []struct {
		name, key string
		gen       func() (*datagen.Dataset, error)
	}{
		{"acp", "hin/decode", func() (*datagen.Dataset, error) { return datagen.Biblio(acp) }},
		{"weather", "hin/decode-weather", func() (*datagen.Dataset, error) {
			return datagen.Weather(datagen.WeatherSetting1(1000, 1000, 20, 1))
		}},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			ds, err := tc.gen()
			if err != nil {
				b.Fatal(err)
			}
			doc, err := ds.Net.MarshalJSON()
			if err != nil {
				b.Fatal(err)
			}
			decode := func() {
				if benchNetwork, err = genclus.NetworkFromJSON(doc); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(len(doc)))
			recordOp(b, tc.key, 3, 1, decode)
		})
	}
}

// benchQueries keeps BenchmarkDecodeAssignRequest's result observable.
var benchQueries []infer.Query

// BenchmarkDecodeAssignRequest measures the assign route's decode: one
// infer.DecodeRequest call, under genclusd's default batch bound of 256,
// on the bodies the serve workloads send — 8 papers of a default-scale
// A–C–P network (1,200 authors, 1,800 papers, 20 venues) cloned with their
// links and term counts, about 2.7 KB each. Each op decodes the next of 16
// such bodies. The result lands in BENCH_fit.json as
// "infer/decode-assign", with allocs/op: a decode allocates per request
// and per escaped string, plus the growth of its staging slices, never
// per link or term count. CI gates it like hin/decode.
func BenchmarkDecodeAssignRequest(b *testing.B) {
	ds, err := datagen.Biblio(datagen.DefaultBiblioConfig(datagen.SchemaACP, 1))
	if err != nil {
		b.Fatal(err)
	}
	bodies, err := infertest.RequestBodies(ds.Net, 16, 8)
	if err != nil {
		b.Fatal(err)
	}
	next := 0
	decode := func() {
		body := bodies[next%len(bodies)]
		next++
		if _, benchQueries, err = infer.DecodeRequest(body, 256); err != nil {
			b.Fatal(err)
		}
	}
	var size int
	for _, body := range bodies {
		size += len(body)
	}
	b.SetBytes(int64(size / len(bodies)))
	recordOp(b, "infer/decode-assign", len(bodies), 1, decode)
}

// Results the wire codec benchmark keeps observable.
var (
	benchWireBytes  []byte
	benchWireResult *client.Result
	benchWireAssign client.AssignResponse
)

// roundTripFunc is an http.RoundTripper that answers in memory.
type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// BenchmarkWireCodec measures the hand-written codecs of genclusd's two
// hottest responses and the SDK's assign request, each on documents shaped
// like the benchmark workloads' traffic:
//
//   - "wire/result-encode": genclusd's encoding of a fit-acp-shaped result
//     (server.AppendResult, into a buffer sized as the route sizes it):
//     12,020 objects (4,800 authors, 7,200 papers, 20 venues) with K=4 Θ
//     rows, half of them floored near-one-hot rows as a converged fit
//     writes them, about 1.5 MB;
//   - "wire/result-decode": the SDK's JobResult of that body over an
//     in-memory transport, so its read (into a buffer sized from the
//     Content-Length genclusd declares) and one-pass decode;
//   - "wire/assign-request": the SDK's encoding of an assign request
//     (infer.AppendRequest into a buffer sized as AssignObjects sizes it)
//     of 8 papers of a default-scale A–C–P network cloned with their
//     links and term counts, the next of 16 per op;
//   - "wire/assign-response": the SDK's one-pass decode of the reply to
//     such a request (infer.DecodeResponse), K=4 with top_k 1.
//
// Each lands in BENCH_fit.json with allocs/op, and CI gates each key at
// +50% ns/op and +1% allocs/op: the decoders allocate per document and
// per distinct string, the encoders per buffer growth, none per value.
func BenchmarkWireCodec(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	theta := func(k int) []float64 {
		row := make([]float64, k)
		if rng.Intn(2) == 0 {
			top := rng.Intn(k)
			for c := range row {
				row[c] = 1e-9
			}
			row[top] = 1 - float64(k-1)*1e-9
			return row
		}
		sum := 0.0
		for c := range row {
			row[c] = rng.ExpFloat64()
			sum += row[c]
		}
		for c := range row {
			row[c] /= sum
		}
		return row
	}

	acp := datagen.DefaultBiblioConfig(datagen.SchemaACP, 1)
	acp.NumAuthors, acp.NumPapers = 4800, 7200
	fitNet, err := datagen.Biblio(acp)
	if err != nil {
		b.Fatal(err)
	}
	res := &client.Result{ID: "job_0123456789abcdef", K: 4, Objective: -123456.789, PseudoLL: -9876.54321,
		EMIterations: 158, OuterIterations: 10, Gamma: map[string]float64{},
		Metrics: &client.Metrics{NMI: 0.9134, ARI: 0.9012, Purity: 0.9667, Labeled: 7200}}
	for r := 0; r < fitNet.Net.NumRelations(); r++ {
		res.Gamma[fitNet.Net.RelationName(r)] = rng.Float64() * 3
	}
	for v := 0; v < fitNet.Net.NumObjects(); v++ {
		o := fitNet.Net.Object(v)
		row := theta(4)
		res.Objects = append(res.Objects, client.ObjectResult{ID: o.ID, Type: fitNet.Net.TypeOf(v), Cluster: slices.Index(row, slices.Max(row)), Theta: row})
	}
	resultBody, err := server.AppendResult(nil, res)
	if err != nil {
		b.Fatal(err)
	}
	resultBody = append(resultBody, '\n')
	sdk := client.New("http://genclusd.invalid", client.WithHTTPClient(&http.Client{Transport: roundTripFunc(func(*http.Request) (*http.Response, error) {
		return &http.Response{StatusCode: http.StatusOK, Header: http.Header{"Content-Type": {"application/json"}},
			ContentLength: int64(len(resultBody)), Body: io.NopCloser(bytes.NewReader(resultBody))}, nil
	})}))

	serveNet, err := datagen.Biblio(datagen.DefaultBiblioConfig(datagen.SchemaACP, 1))
	if err != nil {
		b.Fatal(err)
	}
	bodies, err := infertest.RequestBodies(serveNet.Net, 16, 8)
	if err != nil {
		b.Fatal(err)
	}
	requests := make([]client.AssignRequest, len(bodies))
	replies := make([][]byte, len(bodies))
	for i, body := range bodies {
		if err := json.Unmarshal(body, &requests[i]); err != nil {
			b.Fatal(err)
		}
		reply := client.AssignResponse{ModelID: "mdl_0123456789abcdef", K: 4}
		for _, q := range requests[i].Objects {
			row := theta(4)
			top := slices.Index(row, slices.Max(row))
			reply.Assignments = append(reply.Assignments, infer.AssignmentDoc{ID: q.ID, Cluster: top, Theta: row,
				Top: []infer.ClusterProbDoc{{Cluster: top, P: row[top]}}, FoldInIters: 1 + rng.Intn(20)})
		}
		if replies[i], err = infer.AppendResponse(nil, &reply); err != nil {
			b.Fatal(err)
		}
	}

	next := 0
	cases := []struct {
		name, key string
		bytes     int
		op        func(b *testing.B)
	}{
		{"result-encode", "wire/result-encode", len(resultBody), func(b *testing.B) {
			if benchWireBytes, err = server.AppendResult(benchWireBytes[:0], res); err != nil {
				b.Fatal(err)
			}
		}},
		{"result-decode", "wire/result-decode", len(resultBody), func(b *testing.B) {
			if benchWireResult, err = sdk.JobResult(context.Background(), "job_0123456789abcdef"); err != nil {
				b.Fatal(err)
			}
		}},
		{"assign-request", "wire/assign-request", len(bodies[0]), func(b *testing.B) {
			next++
			req := &requests[next%len(requests)]
			if benchWireBytes, err = infer.AppendRequest(make([]byte, 0, 512*len(req.Objects)), req); err != nil {
				b.Fatal(err)
			}
		}},
		{"assign-response", "wire/assign-response", len(replies[0]), func(b *testing.B) {
			next++
			benchWireAssign = client.AssignResponse{}
			if err = infer.DecodeResponse(replies[next%len(replies)], &benchWireAssign); err != nil {
				b.Fatal(err)
			}
		}},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			benchWireBytes = make([]byte, 0, len(resultBody)) // the result route's presized buffer
			b.SetBytes(int64(tc.bytes))
			recordOp(b, tc.key, len(bodies), 1, func() { tc.op(b) })
		})
	}
}

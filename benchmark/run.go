package main

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"genclus/client"
	"genclus/internal/snapshot"
)

// config is one benchmark run.
type config struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
	sc       scale
	bin      string // genclusd binary
	workDir  string // daemon data dirs and logs
}

// run carries one workload run's state and results.
type run struct {
	cfg  config
	in   *inputs
	rec  *recorder // nil when untraced
	root *span     // bench.<workload>

	d       *daemon  // the measured daemon (the last set-up's)
	netIDs  []string // daemon id of each of in.nets
	links   int      // link count of the first network at upload
	modelID string   // model the serve workloads assign against
	// clusters is that model's cluster of each object of the first
	// network, from its fit result.
	clusters map[string]int
	jobs     []string
	acks     []time.Time // mutate-refit: ack time of generation i+1

	mu         sync.Mutex
	violations []string // wrong answers: the run is not correct
	failures   []string // requests that failed: counted, not wrong
	attempted  int
	failed     int

	samples []float64 // every op latency of the window, ms

	e2e    map[string]float64 // end-to-end metrics
	layer  map[string]float64 // per-layer metrics
	extras map[string]float64 // reported, not declared in BENCHMARK.json
}

func (r *run) violate(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.violations) < 20 {
		r.violations = append(r.violations, fmt.Sprintf(format, args...))
	}
}

// count records one attempted op and whether it failed.
func (r *run) count(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.failures) < 5 {
			r.failures = append(r.failures, err.Error())
		}
	}
}

// call opens a client.* span under parent and returns a context whose SDK
// requests carry it as their traceparent, so the daemon's spans for the
// request nest under it.
func (r *run) call(ctx context.Context, parent *span, name string) (context.Context, *span) {
	s := r.rec.child(parent, name)
	if s != nil {
		ctx = client.WithTraceparent(ctx, s.traceparent())
	}
	return ctx, s
}

// execute runs cfg's workload end to end: set-ups, the measured window,
// then (traced) the trace pulls and direct layer calls. An error means the
// run could not be carried out; correctness violations are on the run.
func execute(ctx context.Context, cfg config) (*run, error) {
	in, err := makeInputs(cfg.workload, cfg.seed, cfg.sc)
	if err != nil {
		return nil, err
	}
	r := &run{cfg: cfg, in: in, e2e: map[string]float64{}, layer: map[string]float64{}, extras: map[string]float64{}}
	if cfg.trace {
		r.rec = &recorder{}
		r.root = r.rec.root("bench."+cfg.workload, nil)
	}

	var setups []float64
	for i := 0; i < cfg.sc.setups; i++ {
		d, took, err := r.setup(ctx, i == cfg.sc.setups-1)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		setups = append(setups, took.Seconds())
		if i < cfg.sc.setups-1 {
			d.stop()
		} else {
			r.d = d
		}
	}
	defer r.d.stop()
	r.e2e["setup_s"] = median(setups)

	before, err := r.d.scrape(ctx)
	if err != nil {
		return nil, err
	}
	var lat []float64 // client-side op latencies, for client.overhead_ms
	var route string  // the op's HTTP route, "" for fits
	switch cfg.workload {
	case "fit-acp", "fit-weather":
		lat, err = r.fitWindow(ctx)
	case "assign-steady":
		route = "POST /v1/models/{id}/assign"
		lat, err = r.assignWindow(ctx)
	case "mutate-refit":
		route = "POST /v1/models/{id}/assign"
		lat, err = r.mutateWindow(ctx)
	}
	if err != nil {
		return nil, err
	}
	after, err := r.d.scrape(ctx)
	if err != nil {
		return nil, err
	}
	if r.e2e["daemon_rss_mb"], err = r.d.peakRSSMiB(); err != nil {
		return nil, err
	}
	if len(r.acks) > 0 {
		if err := r.modelLag(ctx); err != nil {
			return nil, err
		}
	}
	r.daemonLayers(before, after, route, lat)
	if cfg.trace {
		if err := r.pullJobTraces(ctx); err != nil {
			return nil, err
		}
	}
	r.d.stop()
	if cfg.trace {
		if err := r.measureLayers(ctx); err != nil {
			return nil, err
		}
		r.rec.end(r.root)
	}
	return r, nil
}

// setup starts a daemon, uploads the workload's networks and, for the
// serve workloads, fits the model they assign against. Its duration is one
// setup_s sample.
func (r *run) setup(ctx context.Context, keep bool) (*daemon, time.Duration, error) {
	start := time.Now()
	d, err := startDaemon(ctx, r.cfg.bin, r.cfg.workDir)
	if err != nil {
		return nil, 0, err
	}
	var ids []string
	var links int
	for g, n := range r.in.nets {
		info, err := d.sdk.UploadNetworkJSON(ctx, n.doc)
		if err != nil {
			d.stop()
			return nil, 0, fmt.Errorf("upload network %d: %w", g, err)
		}
		ids = append(ids, info.ID)
		if g == 0 {
			links = info.Links
		}
	}
	if r.cfg.workload == "assign-steady" || r.cfg.workload == "mutate-refit" {
		var op *span
		if keep {
			op = r.rec.root("op.fit", r.root)
		}
		f, err := r.fitOnce(ctx, d, ids[0], r.in.nets[0].truth, op)
		r.rec.end(op)
		if err != nil {
			d.stop()
			return nil, 0, fmt.Errorf("initial fit: %w", err)
		}
		if keep {
			r.modelID = f.modelID
			r.jobs = append(r.jobs, f.jobID)
			r.clusters = make(map[string]int, len(f.res.Objects))
			for _, o := range f.res.Objects {
				r.clusters[o.ID] = o.Cluster
			}
		}
	}
	took := time.Since(start)
	if keep {
		r.netIDs, r.links = ids, links
	}
	return d, took, nil
}

// daemonLayers derives the server.* and runtime.* metrics from /metrics
// deltas over the window. lat holds the client's latency for each op.
func (r *run) daemonLayers(before, after promSample, route string, lat []float64) {
	var sum, n float64
	if route == "" {
		sum, n = delta(before, after, "genclus_fit_run_seconds_sum"), delta(before, after, "genclus_fit_run_seconds_count")
	} else {
		sum, n = delta(before, after, routeSeries("sum", route)), delta(before, after, routeSeries("count", route))
	}
	if n > 0 {
		r.layer["server.op_ms"] = sum / n * 1000
		r.layer["client.overhead_ms"] = mean(lat) - r.layer["server.op_ms"]
	}
	r.layer["server.assign.batched_ratio"] = ratio(delta(before, after, "genclus_assign_batched_requests_total"), delta(before, after, "genclus_assign_requests_total"))
	r.layer["server.assign.objects_per_pass"] = ratio(delta(before, after, "genclus_assign_objects_total"), delta(before, after, "genclus_assign_engine_passes_total"))
	r.layer["server.supervisor.refits"] = delta(before, after, "genclus_supervisor_refits_succeeded_total")
	r.layer["runtime.gc_cycles"] = delta(before, after, "genclus_gc_cycles_total")
	r.layer["runtime.gc_pause_ms"] = delta(before, after, "genclus_gc_pause_total_seconds") * 1000
	if failed := delta(before, after, "genclus_supervisor_refits_failed_total"); failed != 0 {
		r.violate("supervisor: %v refits failed", failed)
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// traceDoc is the daemon's trace wire shape (GET /v1/traces/{id},
// GET /v1/jobs/{id}/trace).
type traceDoc struct {
	TraceID string `json:"trace_id"`
	Spans   []struct {
		Name   string         `json:"name"`
		SpanID string         `json:"span_id"`
		Parent string         `json:"parent_span_id"`
		Start  string         `json:"start"`
		End    string         `json:"end"`
		Attrs  map[string]any `json:"attrs"`
	} `json:"spans"`
}

// spans converts the daemon's spans to the benchmark's, skipping any still
// open.
func (t traceDoc) spans() []span {
	var out []span
	for _, s := range t.Spans {
		start, err1 := time.Parse(time.RFC3339Nano, s.Start)
		end, err2 := time.Parse(time.RFC3339Nano, s.End)
		if err1 != nil || err2 != nil {
			continue
		}
		out = append(out, span{Name: s.Name, TraceID: t.TraceID, SpanID: s.SpanID, Parent: s.Parent, Start: start, End: end, Source: "daemon", Attrs: s.Attrs})
	}
	return out
}

// pullRequestTrace fetches the daemon's trace of the request made under s
// and keeps its spans.
func (r *run) pullRequestTrace(ctx context.Context, s *span) {
	var t traceDoc
	if err := r.d.getJSON(ctx, "/v1/traces/"+s.TraceID, &t); err != nil {
		r.violate("trace %s: %v", s.TraceID, err)
		return
	}
	r.rec.add(t.spans()...)
}

// pullJobTraces fetches every fit job's timeline (the set-up fit, window
// fits, supervisor refits) and derives the server.job.* metrics from it.
func (r *run) pullJobTraces(ctx context.Context) error {
	phases := map[string][]float64{}
	for _, id := range r.jobs {
		var t traceDoc
		if err := r.d.getJSON(ctx, "/v1/jobs/"+id+"/trace", &t); err != nil {
			return fmt.Errorf("job trace: %w", err)
		}
		for _, s := range t.spans() {
			phases[s.Name] = append(phases[s.Name], ms(s.dur()))
			r.rec.add(s)
		}
	}
	for name, phase := range map[string]string{
		"server.job.queue_wait_ms": "job.queue_wait",
		"server.job.init_ms":       "fit.init",
		"server.job.outer_iter_ms": "fit.outer_iteration",
		"server.job.persist_ms":    "job.persist",
	} {
		if xs := phases[phase]; len(xs) > 0 {
			r.layer[name] = median(xs)
		}
	}
	var fetch []float64
	for _, s := range r.rec.all() {
		if s.Name == "client.result" {
			fetch = append(fetch, ms(s.dur()))
		}
	}
	if len(fetch) > 0 {
		r.layer["server.result_fetch_ms"] = median(fetch)
	}
	return nil
}

// modelLag measures, for every acked mutation, how long until a registered
// model covered it: from the ack of generation g to the creation of the
// first model whose snapshot records network_generation ≥ g. Acks no model
// covers by the end of the run are counted as uncovered. It runs after the
// daemon's memory is read: exporting every refit's snapshot is the
// benchmark's work, not the workload's.
func (r *run) modelLag(ctx context.Context) error {
	sup, err := r.d.sdk.SupervisorStatus(ctx, r.netIDs[0])
	if err != nil {
		return fmt.Errorf("supervisor status: %w", err)
	}
	if sup.RefitsFailed != 0 {
		r.violate("supervisor: %d refits failed", sup.RefitsFailed)
	}
	r.extras["refits"] = float64(sup.RefitsSucceeded)
	models, err := r.d.sdk.ListModels(ctx)
	if err != nil {
		return fmt.Errorf("list models: %w", err)
	}
	type cover struct {
		gen     int
		created time.Time
	}
	var covers []cover
	for _, m := range models {
		if m.NetworkID != r.netIDs[0] || m.ID == r.modelID {
			continue
		}
		data, err := r.d.sdk.ExportModel(ctx, m.ID)
		if err != nil {
			return fmt.Errorf("export %s: %w", m.ID, err)
		}
		snap, err := snapshot.Decode(data, snapshot.DefaultLimits())
		if err != nil {
			return fmt.Errorf("decode %s: %w", m.ID, err)
		}
		gen, err := strconv.Atoi(snap.Meta["network_generation"])
		if err != nil {
			return fmt.Errorf("model %s: network_generation %q: %w", m.ID, snap.Meta["network_generation"], err)
		}
		created, err := time.Parse(time.RFC3339Nano, m.Created)
		if err != nil {
			return fmt.Errorf("model %s: created: %w", m.ID, err)
		}
		covers = append(covers, cover{gen, created})
		if m.JobID != "" {
			r.jobs = append(r.jobs, m.JobID)
		}
	}
	sort.Slice(covers, func(i, j int) bool { return covers[i].created.Before(covers[j].created) })
	var lags []float64
	uncovered := 0
	for i, ack := range r.acks {
		g := i + 1
		found := false
		for _, c := range covers {
			if c.gen >= g {
				lags = append(lags, c.created.Sub(ack).Seconds())
				found = true
				break
			}
		}
		if !found {
			uncovered++
		}
	}
	if len(lags) > 0 {
		r.extras["model_lag_p50_s"] = median(lags)
	}
	r.extras["model_lag_uncovered"] = float64(uncovered)
	return nil
}

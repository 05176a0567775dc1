package main

// metricDef names one metric the benchmark emits and its unit. The lists
// below are the benchmark's side of the two-way pin against
// BENCHMARK.json (names_test.go): a metric printed here and not declared
// there, or declared there and never printed, fails the tests.
type metricDef struct {
	name, unit string
}

// workloads lists every workload the benchmark runs, in BENCHMARK.json
// order.
var workloads = []string{"fit-acp", "fit-weather", "assign-steady", "mutate-refit"}

// endToEnd are the metrics a genclusd user sees, printed by an untraced
// run of every workload: the result line of an untraced run must carry
// every end-to-end metric of BENCHMARK.json, so each workload prints all
// of them. "op" is the workload's measured operation: a cold fit (submit →
// result downloaded) on fit-acp and fit-weather, an assign request on
// assign-steady and, beside the writes and refits, on mutate-refit.
//
// The op's tail latency and mutate-refit's mutation acks are printed as
// extras, not declared: on a shared 2-core host their run-to-run spread is
// wider than any bound the benchmark definition allows (README.md, "Noise
// on the recorded host").
var endToEnd = []metricDef{
	{"setup_s", "s"},         // daemon start → healthy, upload, initial fit (serve workloads); median of several set-ups
	{"op_p50_ms", "ms"},      // median op latency
	{"ops_per_s", "1/s"},     // ops completed per second of the window
	{"daemon_rss_mb", "MiB"}, // peak resident memory of the daemon (VmHWM)
	// Fit workloads: the fits' NMI against the generator's labels, median
	// over networks. Serve workloads: NMI of the assigned clusters against
	// the model's clusters of the queries' originals.
	{"nmi", "ratio"},
}

// perLayer are the metrics of single layers, printed by a traced run of
// every workload. Direct calls into a package measure it on the workload's
// own network, model, queries and mutations; "server." and "runtime."
// metrics come from the daemon's /metrics deltas over the window and its
// job traces.
var perLayer = []metricDef{
	{"hin.decode_ms", "ms"},
	{"hin.csr_ms", "ms"},
	{"core.fit_ms", "ms"},
	{"core.init_ms", "ms"},
	{"core.outer_iter_ms", "ms"},
	{"core.em_iter_ms", "ms"},
	{"core.strength_ms", "ms"}, // computed: outer_iter_ms − EMIters × em_iter_ms
	{"core.em_iterations", "count"},
	{"core.outer_iterations", "count"},
	{"infer.decode_us", "us"},
	{"infer.pass_us", "us"},
	{"deltalog.apply_ms", "ms"},
	{"deltalog.append_ms", "ms"},
	{"snapshot.encode_ms", "ms"},
	{"store.put_ms", "ms"},
	{"server.op_ms", "ms"},       // daemon-side mean time of the op
	{"client.overhead_ms", "ms"}, // client mean − server.op_ms
	{"server.job.queue_wait_ms", "ms"},
	{"server.job.init_ms", "ms"},
	{"server.job.outer_iter_ms", "ms"},
	{"server.job.persist_ms", "ms"},
	{"server.result_fetch_ms", "ms"},
	{"server.assign.batched_ratio", "ratio"},
	{"server.assign.objects_per_pass", "count"},
	{"server.supervisor.refits", "count"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
}

// metricValue is one entry of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// pick selects defs from vals, reporting the names vals lacks.
func pick(defs []metricDef, vals map[string]float64) (map[string]metricValue, []string) {
	out := make(map[string]metricValue, len(defs))
	var missing []string
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			missing = append(missing, d.name)
			continue
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return out, missing
}

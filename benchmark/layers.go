package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"genclus"
	"genclus/internal/core"
	"genclus/internal/deltalog"
	"genclus/internal/hin"
	"genclus/internal/infer"
	"genclus/internal/store"
)

// Repetitions of each direct layer call; the metric is their median.
const (
	layerReps  = 5
	emWarmup   = 2
	emReps     = 10
	assignReps = 200
	decodeReps = 50
	appendReps = 10
	encodeReps = 5
)

// maxBatch is the daemon's default -assign-max-batch, which bounds
// DecodeRequest on the serving path.
const maxBatch = 256

// timed runs f under a layer.<module>.<call> span and returns its duration.
func (r *run) timed(name string, f func() error) (time.Duration, error) {
	s := r.rec.child(r.root, name)
	start := time.Now()
	err := f()
	took := time.Since(start)
	r.rec.end(s)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", name, err)
	}
	return took, nil
}

// repeat times f reps times and returns the median in ms.
func (r *run) repeat(name string, reps int, f func(i int) error) (float64, error) {
	var xs []float64
	for i := 0; i < reps; i++ {
		d, err := r.timed(name, func() error { return f(i) })
		if err != nil {
			return 0, err
		}
		xs = append(xs, ms(d))
	}
	return median(xs), nil
}

// measureLayers calls each layer the daemon is built from directly, on the
// workload's own inputs, with the daemon already stopped so nothing else
// competes for the cores.
func (r *run) measureLayers(ctx context.Context) error {
	in := r.in
	var err error
	L := r.layer

	// internal/hin: decode the first uploaded document, then build its CSR
	// views.
	nets := make([]*hin.Network, layerReps)
	if L["hin.decode_ms"], err = r.repeat("layer.hin.decode", layerReps, func(i int) error {
		nets[i], err = hin.FromJSONLimited(in.nets[0].doc, genclus.DefaultDecodeLimits())
		return err
	}); err != nil {
		return err
	}
	if L["hin.csr_ms"], err = r.repeat("layer.hin.csr", layerReps, func(i int) error {
		nets[i].PrepareCSR()
		return nil
	}); err != nil {
		return err
	}
	net := nets[0]

	// internal/core: one fit with the daemon's options, timed per phase
	// through the progress hook, plus steady-state EM iterations.
	opts := core.DefaultOptions(in.k)
	var marks []time.Time
	opts.Progress = func(core.Progress) { marks = append(marks, time.Now()) }
	var model *core.Model
	fitStart := time.Now()
	took, err := r.timed("layer.core.fit", func() error {
		model, err = core.FitContext(ctx, net, opts)
		return err
	})
	if err != nil {
		return err
	}
	if len(marks) < 2 {
		return fmt.Errorf("core fit reported %d progress marks, want ≥ 2", len(marks))
	}
	var outer []float64
	for i := 1; i < len(marks); i++ {
		outer = append(outer, ms(marks[i].Sub(marks[i-1])))
	}
	L["core.fit_ms"] = ms(took)
	L["core.init_ms"] = ms(marks[0].Sub(fitStart))
	L["core.outer_iter_ms"] = median(outer)
	L["core.em_iterations"] = float64(model.EMIterations)
	L["core.outer_iterations"] = float64(model.OuterIterations)

	opts.Progress = nil
	h, err := core.NewEMHarness(net, opts)
	if err != nil {
		return fmt.Errorf("em harness: %w", err)
	}
	for i := 0; i < emWarmup; i++ {
		h.RunIteration()
	}
	L["core.em_iter_ms"], err = r.repeat("layer.core.em_iteration", emReps, func(int) error { h.RunIteration(); return nil })
	h.Close()
	if err != nil {
		return err
	}
	L["core.strength_ms"] = L["core.outer_iter_ms"] - float64(opts.EMIters)*L["core.em_iter_ms"]

	// internal/snapshot and internal/store: encode the model, write it.
	var snap []byte
	if L["snapshot.encode_ms"], err = r.repeat("layer.snapshot.encode", encodeReps, func(int) error {
		snap, err = genclus.EncodeModel(model)
		return err
	}); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(r.cfg.workDir, "layers-")
	if err != nil {
		return fmt.Errorf("layer temp dir: %w", err)
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if L["store.put_ms"], err = r.repeat("layer.store.put", encodeReps, func(int) error {
		return st.Put("models", "bench", snap)
	}); err != nil {
		return err
	}

	// internal/infer: decode real request bodies, score one request's
	// queries per pass.
	bodies := make([][]byte, decodeReps)
	for i := range bodies {
		if bodies[i], err = in.requestJSON(i); err != nil {
			return fmt.Errorf("encode assign body: %w", err)
		}
	}
	queries := make([][]infer.Query, decodeReps)
	decode, err := r.repeat("layer.infer.decode", decodeReps, func(i int) error {
		_, queries[i], err = infer.DecodeRequest(bodies[i], maxBatch)
		return err
	})
	if err != nil {
		return err
	}
	L["infer.decode_us"] = decode * 1000
	eng, err := infer.NewEngine(model, infer.Options{Epsilon: opts.Epsilon})
	if err != nil {
		return fmt.Errorf("infer engine: %w", err)
	}
	pass, err := r.repeat("layer.infer.pass", assignReps, func(i int) error {
		_, err := eng.AssignBatch(queries[i%len(queries)])
		return err
	})
	if err != nil {
		return err
	}
	L["infer.pass_us"] = pass * 1000

	// internal/deltalog: apply a workload mutation (with the CSR rebuild
	// the daemon does before acking), then append it to a log on disk.
	muts := make([]*deltalog.Mutation, appendReps)
	for i := range muts {
		e := in.mutations[i]
		muts[i] = &deltalog.Mutation{Op: deltalog.OpEdges, Add: []deltalog.Link{{From: e.From, To: e.To, Relation: e.Relation, Weight: e.Weight}}}
	}
	if L["deltalog.apply_ms"], err = r.repeat("layer.deltalog.apply", layerReps, func(i int) error {
		next, err := deltalog.Apply(net, muts[i])
		if err == nil {
			next.PrepareCSR()
		}
		return err
	}); err != nil {
		return err
	}
	dl, err := deltalog.Open(st, "bench")
	if err != nil {
		return fmt.Errorf("delta log: %w", err)
	}
	L["deltalog.append_ms"], err = r.repeat("layer.deltalog.append", appendReps, func(i int) error {
		_, err := dl.Append(muts[i])
		return err
	})
	return err
}

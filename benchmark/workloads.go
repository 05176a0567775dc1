package main

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"genclus/client"
	"genclus/internal/eval"
)

// fitResult is one completed fit as the client saw it.
type fitResult struct {
	took    time.Duration // submit → result downloaded
	jobID   string
	modelID string
	res     *client.Result
}

// fitOnce submits a cold fit with paper-default options and the
// generator's labels as truth, waits for it on the event stream and
// downloads the result.
func (r *run) fitOnce(ctx context.Context, d *daemon, netID string, truth map[string]int, op *span) (fitResult, error) {
	start := time.Now()
	cctx, s := r.call(ctx, op, "client.submit")
	job, err := d.sdk.SubmitJob(cctx, client.JobSpec{NetworkID: netID, K: r.in.k, Truth: truth})
	r.rec.end(s)
	if err != nil {
		return fitResult{}, fmt.Errorf("submit: %w", err)
	}
	cctx, s = r.call(ctx, op, "client.wait")
	final, err := waitJob(cctx, d.sdk, job.ID)
	r.rec.end(s)
	if err != nil {
		return fitResult{}, err
	}
	if final.State != client.StateDone {
		return fitResult{}, fmt.Errorf("job %s %s: %s", job.ID, final.State, final.Error)
	}
	cctx, s = r.call(ctx, op, "client.result")
	res, err := d.sdk.JobResult(cctx, job.ID)
	r.rec.end(s)
	if err != nil {
		return fitResult{}, fmt.Errorf("result: %w", err)
	}
	return fitResult{took: time.Since(start), jobID: job.ID, modelID: final.ModelID, res: res}, nil
}

// waitJob follows the job's event stream to its terminal state, polling
// status if the stream ends early.
func waitJob(ctx context.Context, sdk *client.Client, id string) (*client.Job, error) {
	var final *client.Job
	err := sdk.StreamEvents(ctx, id, func(ev client.Event) error {
		if ev.Job != nil && ev.Job.State.Terminal() {
			final = ev.Job
			return client.ErrStopStreaming
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("events: %w", err)
	}
	for final == nil {
		job, err := sdk.JobStatus(ctx, id)
		if err != nil {
			return nil, fmt.Errorf("status: %w", err)
		}
		if job.State.Terminal() {
			final = job
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	return final, nil
}

// fingerprint condenses what must repeat bitwise across fits of one
// network: γ, the objective and every Θ entry. The server's NMI is checked
// separately, to within nmiTolerance.
func fingerprint(res *client.Result) string {
	h := fnv.New64a()
	names := make([]string, 0, len(res.Gamma))
	for name := range res.Gamma {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(h, "%s=%x;", name, math.Float64bits(res.Gamma[name]))
	}
	fmt.Fprintf(h, "obj=%x;", math.Float64bits(res.Objective))
	var buf [8]byte
	for _, o := range res.Objects {
		for _, x := range o.Theta {
			bits := math.Float64bits(x)
			for i := range buf {
				buf[i] = byte(bits >> (8 * i))
			}
			h.Write(buf[:])
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// nmiTolerance is how far the server's NMI of identical fits may differ:
// eval.NMI sums over Go maps, whose iteration order changes the last bits.
const nmiTolerance = 1e-12

// fitRate sizes a fit workload's run: about window × rate sequential fits.
// On a 2-core host they take about the window on fit-weather and two
// thirds of it on fit-acp, whose set-ups upload five networks of 12,020
// objects each and take the rest. The count, not the time, is fixed, so
// the work done and the memory the daemon holds for finished jobs do not
// depend on how fast the fits are; only a host more than twice as slow
// stops a run short, at twice the window.
var fitRate = map[string]float64{"fit-acp": 0.5, "fit-weather": 1.25}

// minFitsPerNetwork is the fewest fits a run makes of each network, so
// that the bitwise repeat check always has fits to compare.
const minFitsPerNetwork = 2

// fitWindow runs sequential cold fits of the uploaded networks, taking
// them in turn. The run's NMI is the median over networks of each one's
// NMI.
func (r *run) fitWindow(ctx context.Context) ([]float64, error) {
	var lat []float64
	nets := len(r.netIDs)
	first := make([]*client.Result, nets) // each network's first fit
	failedFits := 0
	perNet := max(minFitsPerNetwork, int(math.Round(r.cfg.window.Seconds()*fitRate[r.cfg.workload]/float64(nets))))
	start := time.Now()
	for i := 0; i < perNet*nets && ctx.Err() == nil && time.Since(start) < 2*r.cfg.window; i++ {
		g := i % nets
		op := r.rec.root("op.fit", r.root)
		f, err := r.fitOnce(ctx, r.d, r.netIDs[g], r.in.nets[g].truth, op)
		r.rec.end(op)
		r.count(err)
		if err != nil {
			if failedFits++; failedFits > 3 {
				return nil, fmt.Errorf("fits keep failing: %w", err)
			}
			continue
		}
		r.jobs = append(r.jobs, f.jobID)
		lat = append(lat, ms(f.took))
		if f.res.Metrics == nil {
			r.violate("fit %d: result carries no metrics against the submitted truth", i)
			continue
		}
		f0 := first[g]
		if f0 == nil {
			first[g] = f.res
			continue
		}
		if fp, fp0 := fingerprint(f.res), fingerprint(f0); fp != fp0 {
			r.violate("fit %d of network %d differs from its first in γ, objective or Θ: %s vs %s", i, g, fp, fp0)
		}
		if d := math.Abs(f.res.Metrics.NMI - f0.Metrics.NMI); d > nmiTolerance {
			r.violate("fit %d of network %d: NMI %v differs from its first's %v", i, g, f.res.Metrics.NMI, f0.Metrics.NMI)
		}
	}
	var nmis, iters []float64
	for _, f0 := range first {
		if f0 != nil {
			nmis = append(nmis, f0.Metrics.NMI)
			iters = append(iters, float64(f0.EMIterations))
		}
	}
	if len(nmis) == 0 {
		return nil, errors.New("no fit completed")
	}
	r.e2e["nmi"] = median(nmis)
	r.extras["em_iterations"] = median(iters)
	r.opMetrics(lat, time.Since(start))
	return lat, nil
}

// opMetrics fills the latency and throughput metrics of the op, and its
// tail when the window holds enough ops for one.
func (r *run) opMetrics(lat []float64, elapsed time.Duration) {
	r.samples = lat
	r.e2e["op_p50_ms"] = median(lat)
	r.e2e["ops_per_s"] = float64(len(lat)) / elapsed.Seconds()
	r.extras["op_count"] = float64(len(lat))
	r.tailExtras("op", lat)
}

// tailExtras records the tail of lat as the extras <name>_tail_ms,
// _tail_percentile and _tail_beyond, unless lat is too short for a tail.
func (r *run) tailExtras(name string, lat []float64) {
	v, p, over := tail(lat)
	if p == 50 {
		return
	}
	r.extras[name+"_tail_ms"] = v
	r.extras[name+"_tail_percentile"] = p
	r.extras[name+"_tail_beyond"] = float64(over)
}

// assignChecker verifies assign responses: every θ row sums to 1 ± 1e-9,
// and repeated request bodies get identical assignments. It also records
// each pool query's cluster for the NMI against the model's clusters.
type assignChecker struct {
	r     *run
	mu    sync.Mutex
	first map[int][]client.Assignment // request body → first answer
	pred  map[int]int                 // pool query → cluster
}

func newAssignChecker(r *run) *assignChecker {
	return &assignChecker{r: r, first: map[int][]client.Assignment{}, pred: map[int]int{}}
}

func (c *assignChecker) check(body int, resp *client.AssignResponse) {
	idx := c.r.in.requests[body%len(c.r.in.requests)]
	if len(resp.Assignments) != len(idx) {
		c.r.violate("assign body %d: %d assignments for %d objects", body, len(resp.Assignments), len(idx))
		return
	}
	for i, a := range resp.Assignments {
		var sum float64
		for _, x := range a.Theta {
			sum += x
		}
		if math.Abs(sum-1) > 1e-9 || a.Cluster < 0 || a.Cluster >= c.r.in.k {
			c.r.violate("assign body %d object %d: θ sums to %v, cluster %d", body, i, sum, a.Cluster)
		}
	}
	key := body % len(c.r.in.requests)
	c.mu.Lock()
	defer c.mu.Unlock()
	prev, ok := c.first[key]
	if !ok {
		c.first[key] = resp.Assignments
		for i, a := range resp.Assignments {
			c.pred[idx[i]] = a.Cluster
		}
		return
	}
	for i := range prev {
		if !sameAssignment(prev[i], resp.Assignments[i]) {
			c.r.violate("assign body %d object %d: answer changed between identical requests", key, i)
			return
		}
	}
}

func sameAssignment(a, b client.Assignment) bool {
	if a.ID != b.ID || a.Cluster != b.Cluster || a.FoldInIters != b.FoldInIters || len(a.Theta) != len(b.Theta) || len(a.Top) != len(b.Top) {
		return false
	}
	for i := range a.Theta {
		if math.Float64bits(a.Theta[i]) != math.Float64bits(b.Theta[i]) {
			return false
		}
	}
	for i := range a.Top {
		if a.Top[i].Cluster != b.Top[i].Cluster || math.Float64bits(a.Top[i].P) != math.Float64bits(b.Top[i].P) {
			return false
		}
	}
	return true
}

// nmi scores the pool queries' assigned clusters against the clusters the
// model gave their originals in its fit: how faithfully serving reproduces
// the fit. How good the fit itself is depends on the network's seed (7 of
// 40 serve networks put a paper or more on the wrong side, and seeds
// 101–110 gave NMIs against the generator's labels from 0.86 to 1), which
// the fit workloads measure on five networks at a time.
func (c *assignChecker) nmi() (float64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var pred, fitted []int
	for q, cl := range c.pred {
		pred = append(pred, cl)
		fitted = append(fitted, c.r.clusters[c.r.in.queryOf[q]])
	}
	return eval.NMI(pred, fitted)
}

// traceEvery is how often a traced run pulls the daemon's trace of an
// assign or mutation request: 1 in 100.
const traceEvery = 100

// assignClient is one closed-loop client: it sends its next request as
// soon as the previous answer arrives, until stop is set. It returns each
// request's latency in ms.
func (r *run) assignClient(ctx context.Context, id, stride int, chk *assignChecker, stop *atomic.Bool) []float64 {
	var lat []float64
	for i := 0; !stop.Load() && ctx.Err() == nil; i++ {
		body := id + i*stride
		op := r.rec.root("op.assign", r.root)
		cctx, s := r.call(ctx, op, "client.assign")
		start := time.Now()
		resp, err := r.d.sdk.AssignObjects(cctx, r.modelID, r.in.request(body))
		took := time.Since(start)
		r.rec.end(s)
		r.rec.end(op)
		r.count(err)
		if err != nil {
			continue
		}
		lat = append(lat, ms(took))
		chk.check(body, resp)
		if s != nil && i%traceEvery == 0 {
			r.pullRequestTrace(ctx, s)
		}
	}
	return lat
}

// assignWindow runs two closed-loop assign clients — the host's
// connection cap — for a warm-up and then the measured window.
func (r *run) assignWindow(ctx context.Context) ([]float64, error) {
	const clients = maxConns
	chk := newAssignChecker(r)
	phase := func(d time.Duration) ([]float64, time.Duration) {
		var stop atomic.Bool
		var wg sync.WaitGroup
		lats := make([][]float64, clients)
		start := time.Now()
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				lats[c] = r.assignClient(ctx, c, clients, chk, &stop)
			}(c)
		}
		select {
		case <-time.After(d):
		case <-ctx.Done():
		}
		stop.Store(true)
		wg.Wait()
		var all []float64
		for _, l := range lats {
			all = append(all, l...)
		}
		return all, time.Since(start)
	}
	if r.cfg.sc.warmup > 0 {
		phase(time.Duration(r.cfg.sc.warmup * float64(time.Second)))
	}
	lat, elapsed := phase(r.cfg.window)
	if len(lat) == 0 {
		return nil, errors.New("no assign completed")
	}
	r.opMetrics(lat, elapsed)
	nmi, err := chk.nmi()
	if err != nil {
		return nil, fmt.Errorf("assign NMI: %w", err)
	}
	r.e2e["nmi"] = nmi
	return lat, nil
}

// mutationRate is the open-loop mutation schedule, per second. An ack
// costs about 10 ms of daemon CPU beside the refits and the assign client,
// and this host's speed halves for minutes at a time: at 50/s a slow spell
// pushed the daemon past capacity (acks 8.6 s late, 29/s achieved), so the
// rate leaves room for a host twice as slow.
const mutationRate = 25

// mutateWindow sends one-link mutations open loop at mutationRate on one
// connection, each timed from when it was due, while one closed-loop
// assign client uses the other connection. The default supervisor refits
// the network every 32 pending mutations in the background.
//
// The op is the assign request served beside the writes and refits. The
// acks are extras: an ack rebuilds the whole network and its allocation
// load drives the daemon's GC, so its latency follows the memory traffic
// of the host's other tenants (see README.md).
func (r *run) mutateWindow(ctx context.Context) ([]float64, error) {
	chk := newAssignChecker(r)
	var stop atomic.Bool
	var assignLat []float64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		assignLat = r.assignClient(ctx, 0, 1, chk, &stop)
	}()

	n := int(r.cfg.window.Seconds() * mutationRate)
	if n < 1 {
		n = 1
	}
	interval := time.Second / mutationRate
	var fromDue, sendLag []float64
	var acks []time.Time
	var last *client.MutationResult
	start := time.Now()
	for i := 0; i < n && ctx.Err() == nil; i++ {
		due := start.Add(time.Duration(i) * interval)
		time.Sleep(time.Until(due))
		edge := r.in.mutations[i%len(r.in.mutations)]
		op := r.rec.root("op.mutate", r.root)
		cctx, s := r.call(ctx, op, "client.add_edges")
		sent := time.Now()
		res, err := r.d.sdk.AddEdges(cctx, r.netIDs[0], []client.Edge{edge})
		acked := time.Now()
		r.rec.end(s)
		r.rec.end(op)
		r.count(err)
		if err != nil {
			continue
		}
		if res.Generation != len(acks)+1 {
			r.violate("mutation %d: generation %d, want %d (generations must be contiguous)", i, res.Generation, len(acks)+1)
		}
		fromDue = append(fromDue, ms(acked.Sub(due)))
		sendLag = append(sendLag, ms(sent.Sub(due)))
		acks = append(acks, acked)
		last = res
		if s != nil && i%traceEvery == 0 {
			r.pullRequestTrace(ctx, s)
		}
	}
	elapsed := time.Since(start)
	stop.Store(true)
	wg.Wait()
	if last == nil {
		return nil, errors.New("no mutation acked")
	}
	if len(assignLat) == 0 {
		return nil, errors.New("no assign completed beside the mutations")
	}
	if want := r.links + len(acks); last.Links != want {
		r.violate("network has %d links after %d acked adds to %d, want %d", last.Links, len(acks), r.links, want)
	}
	r.opMetrics(assignLat, elapsed)

	r.acks = acks
	r.extras["ack_p50_ms"] = median(fromDue)
	r.tailExtras("ack", fromDue)
	r.extras["acks_per_s"] = float64(len(acks)) / elapsed.Seconds()
	gl, _, _ := tail(sendLag)
	r.extras["gen_lag_tail_ms"] = gl
	nmi, err := chk.nmi()
	if err != nil {
		return nil, fmt.Errorf("assign NMI: %w", err)
	}
	r.e2e["nmi"] = nmi
	return assignLat, nil
}

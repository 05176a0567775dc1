package core

import (
	"math"
	"sync"

	"genclus/internal/hin"
)

// emAccum collects the per-chunk sufficient statistics of one EM iteration,
// plus the chunk-local E-step scratch. One accumulator per reduction chunk
// is allocated lazily on the first iteration and reused (zeroed) on every
// subsequent one, so the steady-state EM loop performs no allocation.
//
// Every slice is carved out of one flat backing array with cache-line
// guard pads at both ends and 64-byte spacing between sections, so two
// accumulators — always written by different goroutines under parallel EM —
// can never place their statistics on a shared cache line. Without the pads
// the K-length Gaussian accumulators of adjacent chunks are small enough to
// land on one line and false-share on every observation.
type emAccum struct {
	// cat[a] is the flat accumulator of categorical attribute a in
	// term-major layout: cat[a][l*K+k] = Σ_v c_{v,l} p(z_{v,l} = k). Nil for
	// numeric or out-of-play attributes.
	cat [][]float64
	// Gaussian accumulators by attribute id (weight, weighted x, weighted
	// x²), each of length K. Nil for categorical or out-of-play attributes.
	gaussW, gaussWX, gaussWX2 [][]float64

	// E-step scratch local to the goroutine running this chunk. rows is the
	// chunk's flat newRow matrix (emChunkSize×K): the E-step accumulates
	// every object's unnormalized Θ_t row in it across the link and
	// attribute passes, then normalizes in a final pass.
	rows              []float64
	resp, logs, logTh []float64

	// observes[a] reports whether any object of the chunk has an
	// observation of attribute a. The E-step writes a chunk's statistics
	// of a only then: the other sections stay zero from allocation on, so
	// reset need not clear them and the merge need not fold them in.
	observes []bool
}

// padFloats rounds a float64 count up to a whole number of 64-byte cache
// lines (8 floats), the section spacing inside an emAccum backing.
func padFloats(n int) int { return (n + 7) &^ 7 }

func (s *state) newAccum() *emAccum {
	k := s.opts.K
	nAttr := s.net.NumAttrs()
	acc := &emAccum{
		cat:      make([][]float64, nAttr),
		gaussW:   make([][]float64, nAttr),
		gaussWX:  make([][]float64, nAttr),
		gaussWX2: make([][]float64, nAttr),
	}
	// One guard line leads and trails the backing; every section starts on
	// its own 8-float boundary relative to it.
	total := 16
	for _, a := range s.attrs {
		spec := s.net.Attr(a)
		switch spec.Kind {
		case hin.Categorical:
			total += padFloats(spec.VocabSize * k)
		case hin.Numeric:
			total += 3 * padFloats(k)
		}
	}
	total += padFloats(emChunkSize*k) + 3*padFloats(k)
	backing := make([]float64, total)
	off := 8
	take := func(n int) []float64 {
		sl := backing[off : off+n : off+n]
		off += padFloats(n)
		return sl
	}
	for _, a := range s.attrs {
		spec := s.net.Attr(a)
		switch spec.Kind {
		case hin.Categorical:
			acc.cat[a] = take(spec.VocabSize * k)
		case hin.Numeric:
			acc.gaussW[a] = take(k)
			acc.gaussWX[a] = take(k)
			acc.gaussWX2[a] = take(k)
		}
	}
	acc.rows = take(emChunkSize * k)
	acc.resp = take(k)
	acc.logs = take(k)
	acc.logTh = take(k)
	return acc
}

// reset zeroes the sufficient statistics for reuse in the next iteration.
// Sections of attributes the chunk does not observe are still zero and
// are skipped, except in the merge destination (chunk 0, dest), which
// the last merge filled with every chunk's statistics.
func (acc *emAccum) reset(dest bool) {
	for a, m := range acc.cat {
		if dest || acc.observes[a] {
			clear(m)
		}
	}
	for a := range acc.gaussW {
		if dest || acc.observes[a] {
			clear(acc.gaussW[a])
			clear(acc.gaussWX[a])
			clear(acc.gaussWX2[a])
		}
	}
}

// emChunkSize fixes the granularity of the β-statistics reduction
// independently of Options.Parallelism: the object range is split into
// chunks of this size, each chunk accumulates into its own emAccum, and the
// accumulators merge in chunk order after all chunks finish. Worker count
// only decides how many chunks run at once, never the shape of the floating
// point summation tree — so a fit is bitwise identical for any Parallelism.
const emChunkSize = 512

// mergeSegDefaultSpan bounds the categorical entries one merge segment
// covers, so large vocabularies split across workers while each entry still
// folds its chunks in order.
const mergeSegDefaultSpan = 1024

// mergeSeg is one disjoint ownership range of the statistics merge: either
// a span of a categorical attribute's flat accumulator, or one Gaussian
// attribute's (weight, Σx, Σx²) triple. The merge partitions the entry
// space into these segments; each segment is folded by exactly one worker,
// chunk 0 through chunk C−1 in order — per entry the same left fold at any
// worker count, so the summation tree is unchanged.
type mergeSeg struct {
	attr   int
	lo, hi int // categorical entry range; unused for Gaussian segments
	gauss  bool
}

// ensureEMScratch lazily allocates the per-chunk accumulators and the merge
// segmentation. The chunk count is a pure function of the (immutable)
// object count, so the scratch is sized exactly once per state.
func (s *state) ensureEMScratch(chunks int) {
	if s.accums != nil {
		return
	}
	s.accums = make([]*emAccum, chunks)
	for c := range s.accums {
		acc := s.newAccum()
		acc.observes = make([]bool, s.net.NumAttrs())
		lo, hi := unitRange(c, s.net.NumObjects(), emChunkSize)
		for _, a := range s.attrs {
			for v := lo; v < hi && !acc.observes[a]; v++ {
				switch s.kind[a] {
				case hin.Categorical:
					acc.observes[a] = len(s.termRows[a][v]) > 0
				case hin.Numeric:
					acc.observes[a] = len(s.numRows[a][v]) > 0
				}
			}
		}
		s.accums[c] = acc
	}
	k := s.opts.K
	for _, a := range s.attrs {
		spec := s.net.Attr(a)
		switch spec.Kind {
		case hin.Categorical:
			n := spec.VocabSize * k
			for lo := 0; lo < n; lo += mergeSegDefaultSpan {
				hi := lo + mergeSegDefaultSpan
				if hi > n {
					hi = n
				}
				s.mergeSegs = append(s.mergeSegs, mergeSeg{attr: a, lo: lo, hi: hi})
			}
		case hin.Numeric:
			s.mergeSegs = append(s.mergeSegs, mergeSeg{attr: a, gauss: true})
		}
	}
}

// refreshModelScratch rebuilds the derived read-only views of the attribute
// models the E-step consumes: the term-major transpose of every categorical
// β (so responsibilities read K contiguous floats per term instead of
// striding across K rows) and the per-component 0.5·ln σ² constants of every
// Gaussian. Values are copied bit-for-bit from the canonical parameters, so
// the arithmetic of the E-step is unchanged.
func (s *state) refreshModelScratch() {
	k := s.opts.K
	for _, a := range s.attrs {
		switch s.kind[a] {
		case hin.Categorical:
			beta := s.cat[a].Beta
			bt := s.catT[a]
			for i := 0; i < k; i++ {
				for l, x := range beta[i] {
					bt[l*k+i] = x
				}
			}
		case hin.Numeric:
			vr := s.gauss[a].Var
			hlv := s.halfLogVar[a]
			for i := 0; i < k; i++ {
				hlv[i] = 0.5 * math.Log(vr[i])
			}
		}
	}
}

// workerPool is the persistent set of worker goroutines a fit dispatches its
// per-object work to: the EM chunks and statistics merge, the strength
// statistics rows, the per-object terms of g′₂ and its derivatives, and the
// per-edge and per-observation terms of g₁. Spawning goroutines per phase
// costs allocations and scheduler latency that dominate short phases; the
// pool amortizes both, keeping steady-state phases at zero allocations.
// FitContext owns one pool for the whole fit (every best-of-seeds
// candidate and the outer alternation share it); EMHarness owns one for its
// lifetime (Close stops it). Workers hold no state between tasks — they
// drain the state's atomic work counter and signal the shared WaitGroup —
// so a stopped pool leaves nothing behind.
type workerPool struct {
	work    chan poolTask
	workers int
	exited  sync.WaitGroup
}

// poolTask asks one pool worker to help drain the current phase's counter
// of s, signalling s.wg when done. w is the worker's slot in the state's
// per-worker scratch.
type poolTask struct {
	s     *state
	phase uint8
	w     int
}

// Phases a state runs on its pool. Every phase writes only unit-owned
// memory (a chunk's accumulator, a merge segment's entry range, or the
// per-object / per-edge / per-observation slots of a unit's range), so the
// order in which workers claim units never reaches the arithmetic.
const (
	phaseEMChunks     uint8 = iota // E-step + Θ update over reduction chunks
	phaseEMMerge                   // statistics merge over ownership segments
	phaseStrengthRows              // strength statistics rows (strength.go)
	phasePseudoLL                  // α and ln B(α) per object for g′₂
	phaseGradHess                  // ψ/ψ′ gradient and Hessian terms per object
	phaseFeatureSum                // per-edge feature terms of g₁ (model.go)
	phaseAttrLL                    // per-observation likelihood terms of g₁
)

// Work-unit sizes of the per-object and per-edge phases. They only set the
// dispatch granularity: every unit writes its own slots and the reductions
// fold those slots serially afterwards, so unlike emChunkSize they never
// shape a floating-point summation.
const (
	objectUnitSize = 256
	edgeUnitSize   = 2048
)

// unitCount is the number of size-wide units covering n items.
func unitCount(n, size int) int { return (n + size - 1) / size }

// unitRange is the item range [lo, hi) of unit u over n items.
func unitRange(u, n, size int) (lo, hi int) {
	lo = u * size
	hi = lo + size
	if hi > n {
		hi = n
	}
	return lo, hi
}

// emChunkCount is the number of EM reduction chunks over n objects (≥ 1).
func emChunkCount(n int) int { return max(unitCount(n, emChunkSize), 1) }

// newWorkerPool starts the pool a state with the given options runs on over
// n objects, or returns nil when one worker suffices: Parallelism ≤ 1, or a
// network too small to span two EM chunks. The worker count is capped at the
// EM chunk count.
func newWorkerPool(n int, opts Options) *workerPool {
	workers := min(opts.Parallelism, emChunkCount(n))
	if workers <= 1 {
		return nil
	}
	p := &workerPool{work: make(chan poolTask), workers: workers}
	p.exited.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer p.exited.Done()
			for t := range p.work {
				t.s.drainPhase(t.phase, t.w)
				t.s.wg.Done()
			}
		}()
	}
	return p
}

// stop terminates the pool's workers and returns once they have exited.
// The pool must not be used afterwards.
func (p *workerPool) stop() {
	close(p.work)
	p.exited.Wait()
}

// workerScratch is one worker's K-sized scratch for the per-object phases.
// The sections share one backing with cache-line guards at both ends and
// 64-byte spacing, so two workers never write to a shared cache line.
type workerScratch struct {
	alpha, psiA, psi1A, logTheta, logs []float64
}

func newWorkerScratch(k int) *workerScratch {
	kp := padFloats(k)
	backing := make([]float64, 16+5*kp)
	take := func(i int) []float64 {
		off := 8 + i*kp
		return backing[off : off+k : off+k]
	}
	return &workerScratch{alpha: take(0), psiA: take(1), psi1A: take(2), logTheta: take(3), logs: take(4)}
}

// runPhase runs units work units of one phase to completion: across the
// pool when the state has one and the phase has more than one unit, else
// on the calling goroutine as worker 0. Both are the same drain loop over
// the same units, so they compute the same values.
func (s *state) runPhase(phase uint8, units int) {
	workers := 1
	if s.pool != nil {
		workers = s.pool.workers
	}
	for len(s.scratch) < workers {
		s.scratch = append(s.scratch, newWorkerScratch(s.opts.K))
	}
	s.units = units
	s.next.Store(0)
	if workers == 1 || units <= 1 {
		s.drainPhase(phase, 0)
		return
	}
	s.wg.Add(workers)
	for w := 0; w < workers; w++ {
		s.pool.work <- poolTask{s: s, phase: phase, w: w}
	}
	s.wg.Wait()
}

// drainPhase claims work units off the phase's atomic counter until none
// remain, running each as worker w.
func (s *state) drainPhase(phase uint8, w int) {
	ws := s.scratch[w]
	for {
		u := int(s.next.Add(1)) - 1
		if u >= s.units {
			return
		}
		switch phase {
		case phaseEMChunks:
			lo, hi := unitRange(u, s.net.NumObjects(), emChunkSize)
			s.accums[u].reset(u == 0)
			s.emRange(lo, hi, s.accums[u])
		case phaseEMMerge:
			s.mergeSegment(s.mergeSegs[u])
		case phaseStrengthRows:
			lo, hi := unitRange(u, len(s.strength.objs), objectUnitSize)
			s.strengthRows(lo, hi, ws.logTheta)
		case phasePseudoLL:
			lo, hi := unitRange(u, len(s.strength.objs), objectUnitSize)
			s.strength.logBetaRange(s.argGamma, lo, hi, ws.alpha)
		case phaseGradHess:
			lo, hi := unitRange(u, len(s.strength.objs), objectUnitSize)
			s.strength.gradHessRange(s.argGamma, lo, hi, ws)
		case phaseFeatureSum:
			lo, hi := unitRange(u, len(s.edgeTerm), edgeUnitSize)
			s.edgeTermRange(s.argGamma, lo, hi, ws.logTheta)
		case phaseAttrLL:
			lo, hi := unitRange(u, s.net.NumObjects(), objectUnitSize)
			s.obsTermRange(lo, hi, ws)
		}
	}
}

// mergeSegment folds one ownership segment of the per-chunk statistics into
// accumulator 0, chunk by chunk in index order — per entry, a left fold
// over the chunks. A chunk that does not observe the segment's attribute
// holds +0 there and is skipped: adding +0 leaves every entry's bits
// unchanged, since under round-to-nearest a sum that starts from +0 is
// never −0.
func (s *state) mergeSegment(seg mergeSeg) {
	accs := s.accums
	if seg.gauss {
		a := seg.attr
		w, wx, wx2 := accs[0].gaussW[a], accs[0].gaussWX[a], accs[0].gaussWX2[a]
		for _, acc := range accs[1:] {
			if !acc.observes[a] {
				continue
			}
			ow, owx, owx2 := acc.gaussW[a], acc.gaussWX[a], acc.gaussWX2[a]
			for c := range w {
				w[c] += ow[c]
				wx[c] += owx[c]
				wx2[c] += owx2[c]
			}
		}
		return
	}
	dst := accs[0].cat[seg.attr][seg.lo:seg.hi]
	for _, acc := range accs[1:] {
		if !acc.observes[seg.attr] {
			continue
		}
		src := acc.cat[seg.attr][seg.lo:seg.hi]
		for i, x := range src {
			dst[i] += x
		}
	}
}

// emIteration performs one E+M pass: responsibilities under (Θ_{t−1}, β_{t−1}),
// then the simultaneous Θ and β updates of Eqs. 10–12 (generalized to any
// set of categorical and Gaussian attributes). The Θ_{t−1} snapshot is the
// state's own thetaOld buffer (callers run snapshotTheta first); Θ_t is
// written into s.theta.
func (s *state) emIteration() {
	chunks := emChunkCount(s.net.NumObjects())
	s.ensureEMScratch(chunks)
	s.refreshModelScratch()
	s.runPhase(phaseEMChunks, chunks)
	// Fold the per-chunk statistics into accumulator 0, one ownership
	// segment per unit; per entry the fold over chunks is in chunk order.
	if chunks > 1 {
		s.runPhase(phaseEMMerge, len(s.mergeSegs))
	}
	s.mStepModels(s.accums[0])
}

// emRange runs the E-step and Θ update for objects in [lo, hi), accumulating
// β sufficient statistics into acc. Θ rows in the range are written in
// place; all reads go through the thetaOld snapshot, so ranges can run
// concurrently.
//
// The work is organized as chunk-wide passes — one over the out-links, one
// per attribute, then a normalization pass — with every object's
// unnormalized row accumulating in acc.rows. Each Θ_t entry receives its
// contributions in one fixed order (out-links in edge-list order:
// relation-major with ascending targets; then in-links in edge order; then
// attributes in declaration order), so the floating-point summation tree —
// and therefore the fit — is bitwise reproducible; the passes only hoist
// model pointers out of the object loop and read Θ_{t−1} through the flat
// panel (see kernels.go for the inner loops and the vectorization-safety
// rules they obey).
func (s *state) emRange(lo, hi int, acc *emAccum) {
	clear(acc.rows[:(hi-lo)*s.opts.K])
	s.emLinks(lo, hi, acc)
	for _, a := range s.attrs {
		s.emAttr(a, lo, hi, acc)
	}
	s.emNormalize(lo, hi, acc)
}

// emLinks is emRange's link pass: Σ_{e=<v,u>} γ(φ(e)) w(e) θ_{u,k}^{t−1}
// over each object's out-links (and in-links, under symmetric
// propagation), added to the chunk's rows.
func (s *state) emLinks(lo, hi int, acc *emAccum) {
	// K-sized buffers are resliced to [:k:k] so the compiler can prove the
	// inner loops in-bounds and drop the checks.
	k := s.opts.K
	rows := acc.rows[: (hi-lo)*k : (hi-lo)*k]
	gamma := s.gamma
	tf := s.thetaOldF
	linkPass(rows, tf, gamma, s.net, lo, hi, k)
	if s.opts.SymmetricPropagation {
		// Merged in-link view, in global edge order, built by the first
		// symmetric pass that reads it. A zero-strength or zero-weight
		// in-link contributes +0.0 to non-negative accumulators — exactly
		// what skipping it would leave — so no branch guards it.
		inStart, inFrom, inRel, inWeight := s.net.InLinkArrays()
		for v := lo; v < hi; v++ {
			nr := rows[(v-lo)*k : (v-lo)*k+k : (v-lo)*k+k]
			for j, end := inStart[v], inStart[v+1]; j < end; j++ {
				g := gamma[inRel[j]] * inWeight[j]
				tb := inFrom[j] * k
				tu := tf[tb : tb+k : tb+k]
				for i := range tu {
					nr[i] += g * tu[i]
				}
			}
		}
	}
}

// emAttr is emRange's pass of attribute a: 1{v∈V_X} Σ_obs p(z = k | obs)
// added to the chunk's rows. emRange runs it in attribute declaration
// order (the per-object accumulation order of the pre-pass-structured
// loop). The per-object arithmetic lives in the shared E-step scoring
// kernels (score.go, kernels.go) so the online fold-in path replays it
// exactly; here it runs with the M-step accumulators attached.
func (s *state) emAttr(a, lo, hi int, acc *emAccum) {
	k := s.opts.K
	rows := acc.rows[: (hi-lo)*k : (hi-lo)*k]
	resp := acc.resp[:k:k]
	switch s.kind[a] {
	case hin.Categorical:
		catPass(rows, acc.cat[a], resp, s.catT[a], s.thetaOldF, s.termRows[a], lo, hi, k)
	case hin.Numeric:
		gp := s.gauss[a]
		logs := acc.logs[:k:k]
		logTh := acc.logTh[:k:k]
		gw, gwx, gwx2 := acc.gaussW[a], acc.gaussWX[a], acc.gaussWX2[a]
		gaussPass(rows, gw, gwx, gwx2, resp, logs, logTh, gp.Mu, gp.Var, s.halfLogVar[a], s.thetaOld, s.numRows[a], lo, hi, k)
	}
}

// emNormalize is emRange's normalization pass into Θ_t (the shared
// kernel's final pass). An object with no out-links and no observations
// receives no information this round: it keeps its row. The range's Θ_t
// rows are then committed at the configured storage precision (pointwise,
// so chunks stay independent; a no-op under float64).
func (s *state) emNormalize(lo, hi int, acc *emAccum) {
	k := s.opts.K
	rows := acc.rows[: (hi-lo)*k : (hi-lo)*k]
	normalizePass(rows, s.thetaF, s.thetaOldF, lo, hi, k, s.opts.Epsilon)
	s.roundTheta(lo, hi)
}

// mStepModels applies the β updates from the accumulated sufficient
// statistics (Eq. 10 for categorical, Eqs. 11–12 for Gaussians).
func (s *state) mStepModels(acc *emAccum) {
	k := s.opts.K
	for _, a := range s.attrs {
		switch s.kind[a] {
		case hin.Categorical:
			beta := s.cat[a].Beta
			vocab := len(beta[0])
			eta := s.opts.SmoothEta
			st := acc.cat[a]
			for c := 0; c < k; c++ {
				var sum float64
				for l := 0; l < vocab; l++ {
					sum += st[l*k+c] + eta
				}
				if sum <= 0 {
					continue // no evidence for this cluster at all: keep β_k
				}
				row := beta[c]
				for l := 0; l < vocab; l++ {
					row[l] = (st[l*k+c] + eta) / sum
				}
			}
		case hin.Numeric:
			gp := s.gauss[a]
			w := acc.gaussW[a]
			wx, wx2 := acc.gaussWX[a], acc.gaussWX2[a]
			for c := range w {
				if w[c] <= 1e-12 {
					continue // dead component: keep previous parameters
				}
				mu := wx[c] / w[c]
				variance := wx2[c]/w[c] - mu*mu
				if variance < s.opts.VarFloor {
					variance = s.opts.VarFloor
				}
				gp.Mu[c] = mu
				gp.Var[c] = variance
			}
		}
	}
	// Commit the updated component models at the configured storage
	// precision (no-op under float64).
	s.roundAttrModels()
}

// snapshotTheta makes the current Θ the Θ_{t−1} snapshot and hands the
// state a scratch buffer to write Θ_t into, by swapping the two row sets
// (and their flat backing panels) — no copy, no allocation after the first
// call. This is sound because emRange fully writes every row of s.theta
// (either the normalized update or a copy of the old row), so the stale
// contents of the swapped-in buffer are never observed. Callers must treat
// the returned snapshot as owned by the state: the next call recycles it.
func (s *state) snapshotTheta() [][]float64 {
	if s.thetaOld == nil {
		n := len(s.theta)
		k := s.opts.K
		backing := make([]float64, n*k)
		s.thetaOldF = backing
		s.thetaOld = make([][]float64, n)
		for v := range s.thetaOld {
			s.thetaOld[v] = backing[v*k : (v+1)*k]
		}
	}
	s.theta, s.thetaOld = s.thetaOld, s.theta
	s.thetaF, s.thetaOldF = s.thetaOldF, s.thetaF
	return s.thetaOld
}

// runEM executes up to `iters` EM iterations (one cluster-optimization step
// of Algorithm 1), stopping early once Θ moves less than opts.EMTol between
// iterations or once s.ctx is cancelled. It returns the number of
// iterations actually run.
func (s *state) runEM(iters int) int {
	for t := 0; t < iters; t++ {
		if s.ctx.Err() != nil {
			return t
		}
		old := s.snapshotTheta()
		s.emIteration()
		if s.opts.EMTol > 0 {
			var move float64
			for v, row := range s.theta {
				for k, x := range row {
					if d := math.Abs(x - old[v][k]); d > move {
						move = d
					}
				}
			}
			if move < s.opts.EMTol {
				return t + 1
			}
		}
	}
	return iters
}

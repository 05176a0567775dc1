package snapshot

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"

	"genclus/internal/core"
)

// OptionsDigest returns a short, stable hex digest of the fit-relevant
// scalar configuration of opts — everything that shapes the optimization
// except the warm-start payloads and runtime hooks (InitTheta, InitGamma,
// InitAttrs, Progress, Parallelism and TrackHistory are excluded: they do
// not change what model the options describe). Two fits with the same
// digest ran the same algorithm configuration, which is what the model
// registry records so a warm-start consumer can tell whether a snapshot's
// hyperparameters match its own.
func OptionsDigest(opts core.Options) string {
	h := sha256.New()
	fmt.Fprintf(h, "v1|k=%d|attrs=%s|outer=%d|em=%d|emtol=%g|outertol=%g|newton=%d|newtontol=%g|sigma=%g|seed=%d|seeds=%d|seedsteps=%d|eps=%g|eta=%g|varfloor=%g|learn=%t|g0=%g|sym=%t",
		opts.K, strings.Join(opts.Attributes, ","), opts.OuterIters, opts.EMIters,
		opts.EMTol, opts.OuterTol, opts.NewtonIters, opts.NewtonTol, opts.PriorSigma,
		opts.Seed, opts.InitSeeds, opts.InitSeedSteps, opts.Epsilon, opts.SmoothEta,
		opts.VarFloor, opts.LearnGamma, opts.InitialGamma, opts.SymmetricPropagation)
	// Appended only for non-default precision so every existing float64
	// digest — including those already recorded in persisted snapshots —
	// stays what it was.
	if p, err := core.ParsePrecision(string(opts.Precision)); err == nil && p != core.PrecisionFloat64 {
		fmt.Fprintf(h, "|prec=%s", p)
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// DataDigest returns the hex SHA-256 of encoded snapshot bytes — the
// content identity the model registry lists next to each model. Because
// encoding is deterministic and decoding only accepts canonical input, a
// model's digest is stable across export, import, and re-export.
func DataDigest(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// MetaEpsilon is the provenance meta key recording the fit's Θ floor
// (Options.Epsilon). The wire format does not carry Result.Epsilon, so
// Decode restores it from this key: online inference needs it because
// reproducing a model's training rows bit for bit requires flooring
// posteriors at the fit's own epsilon. genclusd records it; library
// snapshots (genclus.EncodeModel) carry none.
const MetaEpsilon = "epsilon"

// FormatEpsilon renders an epsilon as an exact hex float for MetaEpsilon:
// the round trip through Decode is bit-exact.
func FormatEpsilon(eps float64) string {
	return strconv.FormatFloat(eps, 'x', -1, 64)
}

// epsilonFromMeta recovers the recorded Θ floor for a model with k
// clusters. It returns 0 — "use the fit default" — when the key is
// absent (imports from older snapshots, models serialized without
// provenance) or when the recorded value is unparsable or outside the
// valid (0, 1/k) domain: a bad provenance entry must degrade assignment
// precision, never fail a decode.
func epsilonFromMeta(meta map[string]string, k int) float64 {
	v, ok := meta[MetaEpsilon]
	if !ok {
		return 0
	}
	eps, err := strconv.ParseFloat(v, 64)
	if err != nil || !(eps > 0) || eps >= 1.0/float64(k) {
		return 0
	}
	return eps
}

// MetaPrecision is the provenance meta key recording the fit's storage
// precision (Options.Precision). The wire flags fix how the bytes decode
// (the decoded model's Precision); the meta copy keeps the fit option in
// the provenance for auditing.
const MetaPrecision = "precision"

// FormatPrecision renders a precision for MetaPrecision ("" normalizes to
// the float64 default).
func FormatPrecision(p core.Precision) string {
	if parsed, err := core.ParsePrecision(string(p)); err == nil {
		return string(parsed)
	}
	return string(core.PrecisionFloat64)
}

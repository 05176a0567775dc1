// Package genclus is a from-scratch Go implementation of GenClus — the
// relation strength-aware clustering algorithm for heterogeneous information
// networks with incomplete attributes (Yizhou Sun, Charu C. Aggarwal, Jiawei
// Han; PVLDB 5(5), VLDB 2012).
//
// GenClus clusters all objects of a typed, link-typed network into one
// shared hidden space using a user-specified subset of attributes, and
// simultaneously learns how much each link type should propagate cluster
// membership. Objects may carry partial or no attribute observations: an
// attribute-free object is clustered purely from its typed neighborhood.
//
// # Quick start
//
//	b := genclus.NewBuilder()
//	b.DeclareAttribute(genclus.AttrSpec{Name: "text", Kind: genclus.Categorical, VocabSize: 1000})
//	b.AddObject("paper1", "paper")
//	b.AddObject("alice", "author")
//	b.AddTermCount("paper1", "text", 42, 3)
//	b.AddLink("alice", "paper1", "write", 1)
//	b.AddLink("paper1", "alice", "written_by", 1)
//	net, err := b.Build()
//	...
//	res, err := genclus.Fit(net, genclus.DefaultOptions(4))
//	// res.Theta — soft memberships; res.Gamma — learned link-type strengths.
//
// The subpackages under internal implement the full reproduction of the
// paper: the probabilistic model and the alternating EM / Newton–Raphson
// optimizer (internal/core), the network substrate (internal/hin), the
// numeric substrates (internal/mathx, internal/linalg, internal/stats,
// internal/spatial), the synthetic data generators of §5.1 and Appendix C
// (internal/datagen, internal/textgen), the comparison baselines
// (internal/baselines), the evaluation metrics (internal/eval), and the
// experiment harness that regenerates every table and figure
// (internal/bench, driven by cmd/experiments).
package genclus

import (
	"fmt"
	"os"

	"genclus/internal/core"
	"genclus/internal/datagen"
	"genclus/internal/eval"
	"genclus/internal/hin"
	"genclus/internal/infer"
	"genclus/internal/snapshot"
	"genclus/internal/store"
)

// Network is an immutable heterogeneous information network: typed objects,
// typed weighted directed links, and (possibly incomplete) attribute
// observations. Construct one with NewBuilder or LoadNetwork.
type Network = hin.Network

// Builder incrementally assembles a Network.
type Builder = hin.Builder

// AttrSpec declares an attribute (name, kind, vocabulary size).
type AttrSpec = hin.AttrSpec

// Kind distinguishes categorical (term-count) from numeric attributes.
type Kind = hin.Kind

// Attribute kinds.
const (
	Categorical = hin.Categorical
	Numeric     = hin.Numeric
)

// Edge is a typed weighted directed link between dense object indices.
type Edge = hin.Edge

// TermCount is one entry of a sparse categorical observation.
type TermCount = hin.TermCount

// NewBuilder returns an empty network builder.
func NewBuilder() *Builder { return hin.NewBuilder() }

// Limits bounds what a decoded network may allocate; see DefaultDecodeLimits.
type Limits = hin.Limits

// LimitError reports input rejected because it exceeded a Limits bound
// (errors.As-distinguishable from malformed-document errors).
type LimitError = hin.LimitError

// DefaultDecodeLimits is the bound NetworkFromJSON and LoadNetwork apply:
// generous enough for any workload this library can actually fit in memory,
// tight enough that a small hostile document cannot force a giant
// allocation (a declared vocabulary size in particular multiplies into
// K×Vocab floats per categorical attribute on every fit). Pass explicit
// Limits — including the zero value for "unlimited" — to
// NetworkFromJSONLimited / LoadNetworkLimited to override.
func DefaultDecodeLimits() Limits {
	return Limits{
		MaxObjects:      50_000_000,
		MaxLinks:        500_000_000,
		MaxAttributes:   1024,
		MaxVocab:        50_000_000,
		MaxObservations: 2_000_000_000,
	}
}

// LoadNetwork reads a network from a JSON file produced by Network.SaveFile
// (or by cmd/datagen), enforcing DefaultDecodeLimits.
func LoadNetwork(path string) (*Network, error) {
	return hin.LoadFileLimited(path, DefaultDecodeLimits())
}

// LoadNetworkLimited is LoadNetwork with caller-chosen bounds. A zero field
// means "no limit" on that dimension; Limits{} disables bounding entirely.
func LoadNetworkLimited(path string, lim Limits) (*Network, error) {
	return hin.LoadFileLimited(path, lim)
}

// NetworkFromJSON parses a serialized network, enforcing
// DefaultDecodeLimits.
func NetworkFromJSON(data []byte) (*Network, error) {
	return hin.FromJSONLimited(data, DefaultDecodeLimits())
}

// NetworkFromJSONLimited is NetworkFromJSON with caller-chosen bounds. A
// zero field means "no limit" on that dimension; Limits{} disables bounding
// entirely.
func NetworkFromJSONLimited(data []byte, lim Limits) (*Network, error) {
	return hin.FromJSONLimited(data, lim)
}

// Options configures a GenClus fit; see DefaultOptions for the
// paper-faithful defaults.
type Options = core.Options

// Precision selects the storage precision of a fit's learned parameters;
// see Options.Precision. The fitted model records it (Result.Precision),
// and snapshots and assigners read it from there.
type Precision = core.Precision

// Precision values accepted by Options.Precision.
const (
	PrecisionFloat64 = core.PrecisionFloat64
	PrecisionFloat32 = core.PrecisionFloat32
)

// ParsePrecision normalizes a precision name ("" and "float64" mean
// PrecisionFloat64), returning a *core.PrecisionError for anything else.
func ParsePrecision(s string) (Precision, error) { return core.ParsePrecision(s) }

// Result is the fitted quantities of a model: soft memberships Θ, learned
// link-type strengths γ, fitted attribute component models, iteration
// counts, and (optionally) per-iteration snapshots.
type Result = core.Result

// Model is a fitted, reusable GenClus model: it embeds the Result and
// retains the source network's object identities so Model.Refit can
// warm-start a later fit on a grown or perturbed network (memberships carry
// over by object ID, strengths by relation name, attribute models by
// attribute name). A refit from a converged model on an unchanged network
// terminates in a couple of EM iterations.
type Model = core.Model

// NewModel reassembles a Model from a Result and the source network's
// object IDs in Theta row order — the rehydration path for fitted state
// that crossed a serialization boundary, e.g. a persisted Result or a
// genclusd job result fetched through the client SDK (client.Result.Model
// does exactly this), so remote fits can seed local Refits.
func NewModel(res *Result, objectIDs []string) (*Model, error) {
	return core.NewModel(res, objectIDs)
}

// Snapshot is one outer-iteration state when Options.TrackHistory is set.
type Snapshot = core.Snapshot

// SnapshotLimits bounds what DecodeModelLimited may allocate while reading
// an untrusted model snapshot; see DefaultSnapshotLimits.
type SnapshotLimits = snapshot.Limits

// SnapshotFormatError reports a model snapshot rejected as malformed —
// wrong magic, truncated sections, checksum mismatch, or out-of-domain
// values (errors.As-distinguishable from SnapshotLimitError).
type SnapshotFormatError = snapshot.FormatError

// SnapshotLimitError reports a model snapshot rejected because a declared
// dimension exceeds a SnapshotLimits bound.
type SnapshotLimitError = snapshot.LimitError

// DefaultSnapshotLimits is the bound DecodeModel and LoadModel apply:
// generous enough for any model this library can fit in memory, tight
// enough that a small hostile file cannot claim giant dimensions.
func DefaultSnapshotLimits() SnapshotLimits { return snapshot.DefaultLimits() }

// EncodeModel serializes a fitted model into the versioned binary snapshot
// format — the portable form of fitted state: byte-identical for identical
// models, self-checksummed, decodable by DecodeModel, importable into a
// genclusd model registry (POST /v1/models/import or client.ImportModel),
// and readable by the genclus CLI (-from-model). The wire layout follows
// the model's fitted storage precision (Options.Precision): a float32 fit
// encodes — and later decodes — as float32. Result.History is not
// persisted, and neither is Result.Epsilon: the model decodes with the fit
// default floor (a genclusd export records its fit's floor in the snapshot
// meta, and DecodeModel restores it from there).
func EncodeModel(m *Model) ([]byte, error) {
	return snapshot.Encode(&snapshot.Snapshot{Model: m})
}

// DecodeModel parses a binary model snapshot (EncodeModel, a genclusd
// export, or the CLI's -save-model), enforcing DefaultSnapshotLimits. The
// returned Model warm-starts refits exactly like the model that produced
// the snapshot: a Refit from it is bitwise-identical to one from the
// original in-memory model.
func DecodeModel(data []byte) (*Model, error) {
	return DecodeModelLimited(data, DefaultSnapshotLimits())
}

// DecodeModelLimited is DecodeModel with caller-chosen bounds. A zero field
// means "no limit" on that dimension.
func DecodeModelLimited(data []byte, lim SnapshotLimits) (*Model, error) {
	snap, err := snapshot.Decode(data, lim)
	if err != nil {
		return nil, err
	}
	return snap.Model, nil
}

// SaveModel writes a model's binary snapshot to a file (see EncodeModel).
// The write is atomic and durable — temp file in the same directory,
// fsync, rename, fsync the directory — so a failure (full disk, crash)
// leaves any previous snapshot at path intact rather than truncated.
func SaveModel(path string, m *Model) error {
	data, err := EncodeModel(m)
	if err != nil {
		return err
	}
	if err := store.WriteFileAtomic(path, ".gcsnap-*", 0o644, data); err != nil {
		return fmt.Errorf("genclus: write model %s: %w", path, err)
	}
	return nil
}

// LoadModel reads a binary model snapshot from a file, enforcing
// DefaultSnapshotLimits (see DecodeModel).
func LoadModel(path string) (*Model, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("genclus: read model %s: %w", path, err)
	}
	return DecodeModel(data)
}

// Assigner is the online inference engine: it folds out-of-sample objects
// — links to the model's known objects plus optional partial attribute
// observations — into a fitted model's hidden space without refitting,
// returning soft cluster posteriors and top-k hard assignments computed
// with the same E-step arithmetic as the fit (a missing attribute simply
// contributes no term). Construct one per model with NewAssigner; steady-
// state AssignBatch allocates nothing, but an Assigner is NOT safe for
// concurrent use — create one per goroutine, or let genclusd's
// /v1/models/{id}/assign endpoint do the batching and locking.
type Assigner = infer.Engine

// AssignQuery describes one object to assign: links into the known network
// plus optional partial attribute observations.
type AssignQuery = infer.Query

// AssignLink is one directed link from a query object to a known object.
type AssignLink = infer.Link

// AssignCatObs is a query object's term-count observation of one
// categorical attribute.
type AssignCatObs = infer.CatObs

// AssignNumObs is a query object's observation list of one numeric
// attribute.
type AssignNumObs = infer.NumObs

// Assignment is one query's scored result: hard cluster, soft posterior
// row, top-k list, and the fold-in iteration count. Results returned by an
// Assigner alias its reusable arena and are valid until its next call;
// AssignObjects returns stable copies instead.
type Assignment = infer.Assignment

// ClusterProb is one entry of an assignment's top-k list.
type ClusterProb = infer.ClusterProb

// AssignOptions configures an Assigner (top-k size, an epsilon floor
// override, input limits). The zero value takes the defaults, and the
// assigner reads the fit's Θ floor and storage precision from the model
// itself, so the zero value reproduces a converged model's training rows.
// The fold-in iteration is capped at 100 passes.
type AssignOptions = infer.Options

// AssignLimits bounds what one AssignBatch call may process — the assign
// trust boundary (batch size, per-query links and observations).
type AssignLimits = infer.Limits

// AssignQueryError reports a malformed or unresolvable assign query (an
// unknown object, relation or attribute, an out-of-vocabulary term, a
// non-finite number); errors.As-distinguishable from AssignLimitError.
type AssignQueryError = infer.QueryError

// AssignLimitError reports an assign batch rejected because it exceeded an
// AssignLimits bound.
type AssignLimitError = infer.LimitError

// DefaultAssignLimits is the bound serving paths apply to assign batches.
func DefaultAssignLimits() AssignLimits { return infer.DefaultLimits() }

// NewAssigner builds the online inference engine for a fitted model — any
// Model: a local Fit/Refit result, a decoded snapshot (DecodeModel /
// LoadModel), or a rehydrated remote fit (NewModel). The engine
// precomputes the model-derived scoring views once, so it is the right
// shape to keep around when assigning many batches against one model.
func NewAssigner(m *Model, opts AssignOptions) (*Assigner, error) {
	return infer.NewEngine(m, opts)
}

// AssignObjects is the one-call convenience form of online inference: it
// builds a throwaway Assigner with default options — the model's own Θ
// floor and storage precision — and returns stable
// copies of the assignments (safe to retain, unlike an Assigner's
// arena-backed results). Queries are local trusted input, so no
// AssignLimits bounds apply — unlike a genclusd request, any batch size
// goes. For repeated or high-volume assignment, construct one Assigner
// with NewAssigner and reuse it.
func AssignObjects(m *Model, queries []AssignQuery) ([]Assignment, error) {
	eng, err := NewAssigner(m, AssignOptions{Unbounded: true})
	if err != nil {
		return nil, err
	}
	res, err := eng.AssignBatch(queries)
	if err != nil {
		return nil, err
	}
	out := make([]Assignment, len(res))
	for i, a := range res {
		a.Theta = append([]float64(nil), a.Theta...)
		a.Top = append([]ClusterProb(nil), a.Top...)
		out[i] = a
	}
	return out, nil
}

// AttrModel is a fitted per-attribute component model.
type AttrModel = core.AttrModel

// CatParams holds fitted categorical component term distributions.
type CatParams = core.CatParams

// GaussParams holds fitted Gaussian component means and variances.
type GaussParams = core.GaussParams

// DefaultOptions returns the configuration the paper's experiments use:
// σ = 0.1 strength prior, all-ones γ start, best-of-seeds initialization.
func DefaultOptions(k int) Options { return core.DefaultOptions(k) }

// Fit runs GenClus (Algorithm 1 of the paper): alternating cluster
// optimization (EM over Θ and the attribute parameters) and link-type
// strength learning (projected Newton–Raphson over γ). The returned Model
// embeds the Result and can be refitted on an evolved network via
// Model.Refit.
func Fit(net *Network, opts Options) (*Model, error) { return core.Fit(net, opts) }

// NMI computes normalized mutual information between two labelings.
func NMI(pred, truth []int) (float64, error) { return eval.NMI(pred, truth) }

// AdjustedRandIndex computes the chance-corrected Rand index between two
// labelings.
func AdjustedRandIndex(pred, truth []int) (float64, error) {
	return eval.AdjustedRandIndex(pred, truth)
}

// Purity computes the majority-class purity of a clustering against ground
// truth (read together with NMI/ARI — it inflates as clusters split).
func Purity(pred, truth []int) (float64, error) { return eval.Purity(pred, truth) }

// HardLabels converts soft memberships to argmax cluster labels.
func HardLabels(theta [][]float64) []int { return eval.HardLabels(theta) }

// Similarity scores a (query, candidate) membership pair for link
// prediction.
type Similarity = eval.Similarity

// Similarities returns the three membership-similarity functions the paper
// compares: cosine, negative Euclidean distance, and the asymmetric
// negative cross entropy −H(θ_j, θ_i).
func Similarities() []Similarity { return eval.Similarities() }

// LinkPredictionMAP ranks candidate targets of the relation for every
// source object by membership similarity and scores the ranking against the
// observed links with Mean Average Precision (paper §5.2.2).
func LinkPredictionMAP(net *Network, theta [][]float64, relation string, sim Similarity) (float64, error) {
	return eval.LinkPredictionMAP(net, theta, relation, sim)
}

// Dataset bundles a generated synthetic network with its ground truth.
type Dataset = datagen.Dataset

// WeatherConfig parameterizes the Appendix C weather sensor network
// generator.
type WeatherConfig = datagen.WeatherConfig

// WeatherSetting1 is the paper's easy weather configuration (diagonal
// means); WeatherSetting2 the hard one (corner means).
func WeatherSetting1(numT, numP, numObs int, seed int64) WeatherConfig {
	return datagen.WeatherSetting1(numT, numP, numObs, seed)
}

// WeatherSetting2 returns the paper's hard weather configuration.
func WeatherSetting2(numT, numP, numObs int, seed int64) WeatherConfig {
	return datagen.WeatherSetting2(numT, numP, numObs, seed)
}

// GenerateWeather builds a synthetic weather sensor network (Appendix C).
func GenerateWeather(cfg WeatherConfig) (*Dataset, error) { return datagen.Weather(cfg) }

// BiblioConfig parameterizes the DBLP-four-area-style bibliographic network
// generator; Schema selects the AC or ACP projection.
type BiblioConfig = datagen.BiblioConfig

// Schema selects the bibliographic network projection.
type Schema = datagen.Schema

// Bibliographic schemas.
const (
	SchemaAC  = datagen.SchemaAC
	SchemaACP = datagen.SchemaACP
)

// DefaultBiblioConfig returns the harness-scale bibliographic configuration.
func DefaultBiblioConfig(schema Schema, seed int64) BiblioConfig {
	return datagen.DefaultBiblioConfig(schema, seed)
}

// GenerateBibliographic builds a synthetic bibliographic network calibrated
// to the DBLP four-area dataset's schema (the internal/datagen package doc
// gives the substitution rationale).
func GenerateBibliographic(cfg BiblioConfig) (*Dataset, error) { return datagen.Biblio(cfg) }

// SocialConfig parameterizes the YouTube-style social media generator from
// the paper's introduction: users (partially profiled), videos (text +
// clip-length attributes) and attribute-free comments, joined by
// upload/like/post/friendship relations.
type SocialConfig = datagen.SocialConfig

// DefaultSocialConfig returns a moderate-size social network configuration.
func DefaultSocialConfig(seed int64) SocialConfig { return datagen.DefaultSocialConfig(seed) }

// GenerateSocial builds the social media network of the paper's
// introduction — the one scenario that combines categorical and numeric
// attributes, each incomplete on different object types, in a single fit.
func GenerateSocial(cfg SocialConfig) (*Dataset, error) { return datagen.Social(cfg) }

// KScore is one candidate cluster count's model-selection score.
type KScore = core.KScore

// SelectK fits the model for K in [kMin, kMax] and scores each candidate
// with AIC and BIC — the model-selection route the paper defers to for
// choosing the number of clusters (§2.2).
func SelectK(net *Network, opts Options, kMin, kMax int) ([]KScore, error) {
	return core.SelectK(net, opts, kMin, kMax)
}

// BestAIC returns the candidate with the lowest AIC (the better-behaved
// criterion for this model; see EXPERIMENTS.md "selectk").
func BestAIC(scores []KScore) (KScore, error) { return core.BestAIC(scores) }

// BestBIC returns the candidate with the lowest BIC.
func BestBIC(scores []KScore) (KScore, error) { return core.BestBIC(scores) }

// FilterEdges derives a network with a subset of the edges (same objects,
// relations, and observations) — the building block for held-out link
// prediction.
func FilterEdges(n *Network, keep func(Edge) bool) (*Network, error) {
	return hin.FilterEdges(n, keep)
}

// NetworkSchema is the typed structure of a network (the paper's τ/φ
// formalism made checkable).
type NetworkSchema = hin.Schema

// RelationSignature is a relation's (source type, target type) pattern.
type RelationSignature = hin.RelationSignature

// InferSchema derives the schema from a network's edges, failing when a
// relation joins inconsistent type pairs.
func InferSchema(n *Network) (*NetworkSchema, error) { return hin.InferSchema(n) }

// ClusterSummary is the human-readable description of one fitted cluster
// (sizes per type, top terms per categorical attribute, component means).
type ClusterSummary = core.ClusterSummary

// TermWeight is one entry of a cluster's top-term list.
type TermWeight = core.TermWeight

// LinkPredictionMAPHoldout scores out-of-sample link prediction: theta was
// fitted on trainNet (built with FilterEdges); heldOut are the removed
// edges of the relation.
func LinkPredictionMAPHoldout(trainNet *Network, theta [][]float64, relation string, heldOut []Edge, sim Similarity) (float64, error) {
	return eval.LinkPredictionMAPHoldout(trainNet, theta, relation, heldOut, sim)
}

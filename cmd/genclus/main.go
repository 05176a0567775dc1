// Command genclus clusters a heterogeneous information network stored as a
// JSON file (the format written by Network.SaveFile / cmd/datagen) and
// writes the soft memberships and learned link-type strengths as JSON.
//
// Usage:
//
//	genclus -in network.json -k 4 [-out result.json] [-attrs text,score]
//	        [-outer 10] [-em 15] [-seed 1] [-parallel 1] [-fixed-gamma]
//	        [-save-model model.gcsnap] [-from-model model.gcsnap]
//	genclus -from-model model.gcsnap -assign queries.json [-out out.json]
//
// -save-model writes the fitted model as a binary snapshot — the portable
// form of fitted state, importable into a genclusd model registry (curl
// --data-binary @model.gcsnap .../v1/models/import) or reloadable here.
// -from-model warm-starts the fit from a snapshot (a previous -save-model,
// or a daemon export from GET /v1/models/{id}/export) instead of starting
// cold: refitting an evolved network this way converges in a fraction of a
// cold start's iterations.
//
// -assign switches to offline online-inference scoring: no network and no
// fit — the snapshot named by -from-model is loaded and every query object
// in the queries file is folded into its hidden space (links to the
// model's known objects plus optional partial attribute observations),
// writing soft posteriors and top-k hard assignments as JSON. The queries
// file uses the same document shape as the daemon's POST
// /v1/models/{id}/assign body:
//
//	{"top_k": 2, "objects": [
//	  {"id": "q1",
//	   "links":   [{"rel": "cites", "to": "paper17", "w": 1}],
//	   "terms":   {"title": [{"t": 3, "c": 2}]},
//	   "numeric": {"score": [0.5]}}]}
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"genclus"
	"genclus/internal/infer"
)

type output struct {
	K          int                `json:"k"`
	Objects    []objectResult     `json:"objects"`
	Gamma      map[string]float64 `json:"gamma"`
	Objective  float64            `json:"objective"`
	Iterations []iterationSummary `json:"iterations,omitempty"`
}

type objectResult struct {
	ID      string    `json:"id"`
	Type    string    `json:"type"`
	Theta   []float64 `json:"theta"`
	Cluster int       `json:"cluster"`
}

type iterationSummary struct {
	Iter  int       `json:"iter"`
	Gamma []float64 `json:"gamma"`
	G1    float64   `json:"g1"`
}

func main() {
	var (
		inPath     = flag.String("in", "", "input network JSON (required)")
		outPath    = flag.String("out", "", "output JSON path (default: stdout)")
		k          = flag.Int("k", 4, "number of clusters")
		attrs      = flag.String("attrs", "", "comma-separated attribute subset (default: all)")
		outer      = flag.Int("outer", 10, "outer iterations (EM + strength learning)")
		em         = flag.Int("em", 15, "EM iterations per outer step")
		seed       = flag.Int64("seed", 1, "random seed")
		parallel   = flag.Int("parallel", runtime.GOMAXPROCS(0), "fit worker goroutines (EM, strength step, objective); results do not depend on it")
		precision  = flag.String("precision", "", "model storage precision: float64 (default) or float32")
		fixedGamma = flag.Bool("fixed-gamma", false, "freeze link-type strengths at 1 (ablation)")
		history    = flag.Bool("history", false, "include per-iteration summaries in the output")
		summary    = flag.Bool("summary", false, "print per-cluster summaries (sizes, top terms, component means) to stderr")
		saveModel  = flag.String("save-model", "", "write the fitted model as a binary snapshot to this path")
		fromModel  = flag.String("from-model", "", "warm-start the fit from a model snapshot (a -save-model file or a genclusd export)")
		assignPath = flag.String("assign", "", "fold the query objects in this JSON file into the -from-model snapshot (offline scoring; no network, no fit)")
	)
	flag.Parse()
	if *assignPath != "" {
		if *fromModel == "" {
			fmt.Fprintln(os.Stderr, "genclus: -assign requires -from-model")
			flag.Usage()
			os.Exit(2)
		}
		// -assign scores without fitting, so fit-only flags cannot take
		// effect — reject them rather than silently dropping them (the
		// caller may be counting on a -save-model file that would never
		// be written, or a -k the snapshot overrides).
		fitOnly := map[string]bool{
			"in": true, "k": true, "attrs": true, "outer": true, "em": true,
			"seed": true, "parallel": true, "precision": true,
			"fixed-gamma": true, "history": true, "summary": true,
			"save-model": true,
		}
		var conflicts []string
		flag.Visit(func(f *flag.Flag) {
			if fitOnly[f.Name] {
				conflicts = append(conflicts, "-"+f.Name)
			}
		})
		if len(conflicts) > 0 {
			fmt.Fprintf(os.Stderr, "genclus: %s only apply to fits and conflict with -assign\n", strings.Join(conflicts, " "))
			os.Exit(2)
		}
		runAssign(*fromModel, *assignPath, *outPath)
		return
	}
	if *inPath == "" {
		fmt.Fprintln(os.Stderr, "genclus: -in is required")
		flag.Usage()
		os.Exit(2)
	}

	net, err := genclus.LoadNetwork(*inPath)
	if err != nil {
		fatal(err)
	}
	opts := genclus.DefaultOptions(*k)
	opts.OuterIters = *outer
	opts.EMIters = *em
	opts.Seed = *seed
	opts.Parallelism = *parallel
	opts.LearnGamma = !*fixedGamma
	opts.TrackHistory = *history
	opts.Precision = genclus.Precision(*precision)
	if *attrs != "" {
		opts.Attributes = strings.Split(*attrs, ",")
	}

	var res *genclus.Model
	if *fromModel != "" {
		prior, err := genclus.LoadModel(*fromModel)
		if err != nil {
			fatal(err)
		}
		kSet := false
		flag.Visit(func(f *flag.Flag) { kSet = kSet || f.Name == "k" })
		if kSet && *k != prior.K {
			fatal(fmt.Errorf("-k %d conflicts with model fitted at K=%d", *k, prior.K))
		}
		opts.K = 0 // inherit the snapshot's K
		res, err = prior.Refit(net, opts)
		if err != nil {
			fatal(err)
		}
		*k = res.K
	} else {
		var err error
		res, err = genclus.Fit(net, opts)
		if err != nil {
			fatal(err)
		}
	}

	if *saveModel != "" {
		if err := genclus.SaveModel(*saveModel, res); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "genclus: wrote model snapshot %s\n", *saveModel)
	}

	if *summary {
		sums, err := res.Summarize(net, 8)
		if err != nil {
			fatal(err)
		}
		for _, cs := range sums {
			fmt.Fprintf(os.Stderr, "%s\n", cs)
			for attr, terms := range cs.TopTerms {
				fmt.Fprintf(os.Stderr, "  %s top terms:", attr)
				for _, tw := range terms {
					fmt.Fprintf(os.Stderr, " %d(%.3f)", tw.Term, tw.Weight)
				}
				fmt.Fprintln(os.Stderr)
			}
			for attr, mu := range cs.GaussMeans {
				fmt.Fprintf(os.Stderr, "  %s mean: %.4g\n", attr, mu)
			}
		}
	}

	out := output{K: *k, Gamma: res.Gamma, Objective: res.Objective}
	labels := genclus.HardLabels(res.Theta)
	for v := 0; v < net.NumObjects(); v++ {
		obj := net.Object(v)
		out.Objects = append(out.Objects, objectResult{
			ID: obj.ID, Type: obj.Type, Theta: res.Theta[v], Cluster: labels[v],
		})
	}
	for _, snap := range res.History {
		out.Iterations = append(out.Iterations, iterationSummary{Iter: snap.Iter, Gamma: snap.Gamma, G1: snap.G1})
	}

	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		fatal(err)
	}
	if *outPath == "" {
		fmt.Println(string(data))
		return
	}
	if err := os.WriteFile(*outPath, data, 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "genclus: wrote %s (%d objects, %d relations)\n", *outPath, net.NumObjects(), net.NumRelations())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "genclus:", err)
	os.Exit(1)
}

// ---- offline assignment (-assign) ----

// assignOut is the -assign output document; its assignments are the same
// shared shape the daemon's assign endpoint returns (infer.AssignmentDoc),
// which is what keeps the two surfaces byte-comparable.
type assignOut struct {
	K           int                   `json:"k"`
	Assignments []infer.AssignmentDoc `json:"assignments"`
}

// runAssign loads a model snapshot and folds the query file's objects into
// its hidden space — offline scoring with no network and no fit. The
// queries file is decoded by the same infer.DecodeRequest the daemon's
// assign endpoint uses, and the engine reads the fit's Θ floor and storage
// precision from the loaded model (a daemon export records the floor in
// its meta; a library snapshot scores at the 1e-9 default), so the output
// matches the daemon's bit for bit.
func runAssign(modelPath, queriesPath, outPath string) {
	model, err := genclus.LoadModel(modelPath)
	if err != nil {
		fatal(err)
	}
	data, err := os.ReadFile(queriesPath)
	if err != nil {
		fatal(err)
	}
	topK, queries, err := infer.DecodeRequest(data, 0) // local file: no batch bound
	if err != nil {
		fatal(fmt.Errorf("%s: %w", queriesPath, err))
	}
	// Offline scoring trusts its local input file: no serving limits.
	eng, err := genclus.NewAssigner(model, genclus.AssignOptions{TopK: topK, Unbounded: true})
	if err != nil {
		fatal(err)
	}
	res, err := eng.AssignBatch(queries)
	if err != nil {
		fatal(err)
	}
	out := assignOut{K: eng.K(), Assignments: infer.AssignmentDocs(res, -1)}
	enc, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		fatal(err)
	}
	if outPath == "" {
		fmt.Println(string(enc))
		return
	}
	if err := os.WriteFile(outPath, enc, 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "genclus: wrote %s (%d assignments against K=%d model)\n", outPath, len(out.Assignments), out.K)
}

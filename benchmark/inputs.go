package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"genclus/client"
	"genclus/internal/datagen"
	"genclus/internal/hin"
)

// scale sizes every generated input. full is what BENCHMARK.json runs;
// smoke is a tiny copy that exercises the same code in a second or two.
type scale struct {
	acpAuthors, acpPapers     int     // each fit-acp network
	weatherT, weatherP, obs   int     // each fit-weather network
	serveAuthors, servePapers int     // assign-steady and mutate-refit network
	setups                    int     // set-ups per run; setup_s is their median
	warmup                    float64 // seconds of assign traffic before the window
}

var (
	// fullScale: fit-acp is the DBLP four-area A–C–P schema at a third of
	// the paper's size (4,800 authors, 7,200 papers, 20 venues); full size
	// moved its median fit ±14% between processes on a 2-core host. The
	// weather network is the paper's largest Setting 1. The serve workloads
	// use the default-scale A–C–P network (3,020 objects).
	fullScale  = scale{4800, 7200, 1000, 1000, 20, 1200, 1800, 7, 1}
	smokeScale = scale{240, 360, 60, 60, 5, 120, 180, 2, 0}
)

// Assign request shape: each request folds in queriesPerRequest objects,
// drawn from a pool of clones of labeled training objects. The pool holds
// every labeled paper of the serve network (128), so that one query in an
// unexpected cluster moves the pool's NMI by about 2.5%, not 4.3% as in a
// pool of 64.
const (
	queriesPerRequest = 8
	queryPool         = 128
	requestBodies     = 64
)

// fitNetworks is how many networks a fit workload fits, each drawn from
// its own seed. Its NMI is their median: on the A–C–P network 6 of 40
// seeds end in a local optimum near 0.75 rather than 0.9, and a median of
// five moves only when three of them do.
const fitNetworks = 5

// network is one generated network as it is uploaded.
type network struct {
	doc   []byte         // the network document uploaded at set-up
	truth map[string]int // object id → generator label
}

// inputs is everything a workload sends, generated from the seed alone.
type inputs struct {
	k    int
	net  *hin.Network // the first network: the serve network, and the layers' input
	nets []network    // every uploaded network: fitNetworks on the fit workloads, else one

	queries  []client.AssignObject // clones of labeled objects
	queryOf  []string              // id of each query's original
	requests [][]int               // indices into queries, one slice per request body

	mutations []client.Edge // links between existing objects, in send order
}

// makeInputs generates the workload's networks and traffic from seed.
// Network g of a fit workload is generated from seed×fitNetworks+g, so
// different seeds never share a network.
func makeInputs(workload string, seed int64, sc scale) (*inputs, error) {
	var gen func(seed int64) (*datagen.Dataset, error)
	count := 1
	switch workload {
	case "fit-acp":
		count = fitNetworks
		gen = func(s int64) (*datagen.Dataset, error) {
			cfg := datagen.DefaultBiblioConfig(datagen.SchemaACP, s)
			cfg.NumAuthors, cfg.NumPapers = sc.acpAuthors, sc.acpPapers
			return datagen.Biblio(cfg)
		}
	case "fit-weather":
		count = fitNetworks
		gen = func(s int64) (*datagen.Dataset, error) {
			return datagen.Weather(datagen.WeatherSetting1(sc.weatherT, sc.weatherP, sc.obs, s))
		}
	case "assign-steady", "mutate-refit":
		gen = func(s int64) (*datagen.Dataset, error) {
			cfg := datagen.DefaultBiblioConfig(datagen.SchemaACP, s)
			cfg.NumAuthors, cfg.NumPapers = sc.serveAuthors, sc.servePapers
			return datagen.Biblio(cfg)
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", workload, workloads)
	}
	in := &inputs{}
	var first *datagen.Dataset
	for g := 0; g < count; g++ {
		s := seed
		if count > 1 {
			s = seed*int64(count) + int64(g)
		}
		ds, err := gen(s)
		if err != nil {
			return nil, fmt.Errorf("generate %s network %d: %w", workload, g, err)
		}
		doc, err := ds.Net.MarshalJSON()
		if err != nil {
			return nil, fmt.Errorf("encode %s network %d: %w", workload, g, err)
		}
		n := network{doc: doc, truth: make(map[string]int, len(ds.Labels))}
		for v, label := range ds.Labels {
			n.truth[ds.Net.Object(v).ID] = label
		}
		in.nets = append(in.nets, n)
		if g == 0 {
			first, in.net, in.k = ds, ds.Net, ds.NumClusters
		}
	}
	// Separate streams per purpose, so that changing one generator leaves
	// the others' draws alone.
	in.makeQueries(first, rand.New(rand.NewSource(seed*7919+1)))
	in.makeMutations(rand.New(rand.NewSource(seed*7919+2)), 4096)
	return in, nil
}

// makeQueries clones labeled objects that carry both links and
// observations — papers on A–C–P, sensors on weather — into assign
// queries, and cuts the request bodies from successive shuffles of that
// pool, so the bodies cover the pool evenly and every query counts toward
// the pool's NMI.
func (in *inputs) makeQueries(ds *datagen.Dataset, rng *rand.Rand) {
	net := ds.Net
	var cand []int
	for v := 0; v < net.NumObjects(); v++ {
		if _, ok := ds.Labels[v]; ok && net.OutDegree(v) > 0 && observed(net, v) {
			cand = append(cand, v)
		}
	}
	rng.Shuffle(len(cand), func(i, j int) { cand[i], cand[j] = cand[j], cand[i] })
	if len(cand) > queryPool {
		cand = cand[:queryPool]
	}
	for _, v := range cand {
		in.queries = append(in.queries, cloneObject(net, v))
		in.queryOf = append(in.queryOf, net.Object(v).ID)
	}
	per := queriesPerRequest
	if per > len(in.queries) {
		per = len(in.queries)
	}
	var stream []int
	for r := 0; r < requestBodies; r++ {
		if len(stream) < per { // a body never holds one query twice
			stream = rng.Perm(len(in.queries))
		}
		in.requests = append(in.requests, stream[:per:per])
		stream = stream[per:]
	}
}

func observed(net *hin.Network, v int) bool {
	for a := 0; a < net.NumAttrs(); a++ {
		if net.HasObservation(a, v) {
			return true
		}
	}
	return false
}

// cloneObject describes object v as an out-of-sample query: its out-links
// and its observations, under a new id.
func cloneObject(net *hin.Network, v int) client.AssignObject {
	q := client.AssignObject{ID: "q-" + net.Object(v).ID}
	for _, e := range net.OutEdges(v) {
		q.Links = append(q.Links, client.AssignLink{Relation: net.RelationName(e.Rel), To: net.Object(e.To).ID, Weight: e.Weight})
	}
	for a, spec := range net.Attrs() {
		if !net.HasObservation(a, v) {
			continue
		}
		switch spec.Kind {
		case hin.Categorical:
			if q.Terms == nil {
				q.Terms = make(map[string][]client.AssignTermCount)
			}
			for _, tc := range net.TermCounts(a, v) {
				q.Terms[spec.Name] = append(q.Terms[spec.Name], client.AssignTermCount{Term: tc.Term, Count: tc.Count})
			}
		case hin.Numeric:
			if q.Numeric == nil {
				q.Numeric = make(map[string][]float64)
			}
			q.Numeric[spec.Name] = append([]float64(nil), net.NumericObs(a, v)...)
		}
	}
	return q
}

// makeMutations draws n link additions between existing objects: each
// copies the relation and endpoint types of a random existing edge, so the
// network keeps its schema.
func (in *inputs) makeMutations(rng *rand.Rand, n int) {
	net := in.net
	edges := net.Edges()
	for i := 0; i < n; i++ {
		e := edges[rng.Intn(len(edges))]
		targets := net.ObjectsOfType(net.TypeOf(e.To))
		in.mutations = append(in.mutations, client.Edge{
			From:     net.Object(e.From).ID,
			To:       net.Object(targets[rng.Intn(len(targets))]).ID,
			Relation: net.RelationName(e.Rel),
			Weight:   1,
		})
	}
}

// request returns assign request body r.
func (in *inputs) request(r int) client.AssignRequest {
	idx := in.requests[r%len(in.requests)]
	objs := make([]client.AssignObject, len(idx))
	for i, q := range idx {
		objs[i] = in.queries[q]
	}
	return client.AssignRequest{Objects: objs}
}

// requestJSON is request r as the bytes the SDK sends.
func (in *inputs) requestJSON(r int) ([]byte, error) {
	return json.Marshal(in.request(r))
}

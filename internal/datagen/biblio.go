package datagen

import (
	"fmt"
	"math/rand"

	"genclus/internal/hin"
	"genclus/internal/textgen"
)

// Object types and relation names used by the bibliographic networks,
// matching the paper's §5.1 nomenclature.
const (
	TypeAuthor = "author"
	TypeConf   = "conference"
	TypePaper  = "paper"

	AttrText = "text"

	// AC network relations.
	RelPublishIn   = "publish_in"   // 〈A,C〉, weighted by #papers
	RelPublishedBy = "published_by" // 〈C,A〉
	RelCoauthor    = "coauthor"     // 〈A,A〉

	// ACP network relations (binary weights).
	RelWrite        = "write"           // 〈A,P〉
	RelWrittenBy    = "written_by"      // 〈P,A〉
	RelPublishCP    = "publish"         // 〈C,P〉
	RelPublishedByP = "published_by_pc" // 〈P,C〉
)

// Schema selects which of the two DBLP-style networks to build.
type Schema int

const (
	// SchemaAC builds the author–conference network: text on all objects
	// (complete attribute), weighted 〈A,C〉 / 〈C,A〉 / 〈A,A〉 links.
	SchemaAC Schema = iota
	// SchemaACP builds the author–conference–paper network: text only on
	// papers (incomplete attribute), binary 〈A,P〉/〈P,A〉/〈C,P〉/〈P,C〉 links.
	SchemaACP
)

func (s Schema) String() string {
	switch s {
	case SchemaAC:
		return "AC"
	case SchemaACP:
		return "ACP"
	default:
		return fmt.Sprintf("Schema(%d)", int(s))
	}
}

// BiblioConfig parameterizes the bibliographic generator. The defaults
// (DefaultBiblioConfig) are a scaled-down DBLP four-area: same schema, same
// relative labeling, smaller object counts so experiments finish quickly;
// FullScaleBiblioConfig reproduces the paper's counts.
type BiblioConfig struct {
	Schema      Schema
	NumAreas    int // research areas / clusters (paper: 4)
	NumConfs    int // conferences (paper: 20)
	NumAuthors  int // paper: 14475
	NumPapers   int // paper: 14376
	TitleLength int // terms per paper title

	// AuthorsPerPaper is the maximum number of authors drawn per paper
	// (uniform in 1..AuthorsPerPaper).
	AuthorsPerPaper int

	// AreaFidelity is the probability that a paper's conference and authors
	// come from the paper's own area (the rest leak uniformly); conference
	// leakage is what makes venues "broad" and authorship what makes the
	// 〈P,A〉 relation more reliable than 〈P,C〉 (Fig. 9's finding).
	ConfFidelity   float64
	AuthorFidelity float64

	// TitleOwnAreaMass is the mixture weight of the paper's own area when
	// sampling its title terms.
	TitleOwnAreaMass float64

	// CoauthorNoise adds this many random coauthor pairs per author to the
	// AC network. DBLP coauthorship spans areas freely ("the spectrum of
	// co-authors may often be quite broad", §5.2.3 — the learned strength
	// of 〈A,A〉 is 0.01); these incidental collaborations are what makes
	// the relation noisy and what the baselines, which weight every link
	// type equally, are hurt by.
	CoauthorNoise int

	// LabeledAuthorFrac / LabeledPapers control ground-truth availability,
	// mirroring DBLP's partial labels (4236 of 14475 authors; 100 papers;
	// all conferences).
	LabeledAuthorFrac float64
	LabeledPapers     int

	Text textgen.Config
	Seed int64
}

// DefaultBiblioConfig is the harness default: the paper's schema at ~1/8
// scale.
func DefaultBiblioConfig(schema Schema, seed int64) BiblioConfig {
	return BiblioConfig{
		Schema:            schema,
		NumAreas:          4,
		NumConfs:          20,
		NumAuthors:        1200,
		NumPapers:         1800,
		TitleLength:       9,
		AuthorsPerPaper:   3,
		ConfFidelity:      0.72,
		AuthorFidelity:    0.92,
		TitleOwnAreaMass:  0.85,
		CoauthorNoise:     3,
		LabeledAuthorFrac: 0.3,
		LabeledPapers:     100,
		Text:              textgen.DefaultConfig(4),
		Seed:              seed,
	}
}

// FullScaleBiblioConfig matches the DBLP four-area counts from §5.1.
func FullScaleBiblioConfig(schema Schema, seed int64) BiblioConfig {
	cfg := DefaultBiblioConfig(schema, seed)
	cfg.NumAuthors = 14475
	cfg.NumPapers = 14376
	cfg.LabeledAuthorFrac = 4236.0 / 14475.0
	cfg.LabeledPapers = 100
	return cfg
}

func (c BiblioConfig) validate() error {
	if c.NumAreas < 2 {
		return fmt.Errorf("datagen: biblio needs ≥ 2 areas, got %d", c.NumAreas)
	}
	if c.NumConfs < c.NumAreas {
		return fmt.Errorf("datagen: biblio needs ≥ %d conferences, got %d", c.NumAreas, c.NumConfs)
	}
	if c.NumAuthors <= 0 || c.NumPapers <= 0 {
		return fmt.Errorf("datagen: biblio needs positive author/paper counts")
	}
	if c.TitleLength <= 0 {
		return fmt.Errorf("datagen: biblio TitleLength = %d, want > 0", c.TitleLength)
	}
	if c.AuthorsPerPaper <= 0 {
		return fmt.Errorf("datagen: biblio AuthorsPerPaper = %d, want > 0", c.AuthorsPerPaper)
	}
	for _, p := range []float64{c.ConfFidelity, c.AuthorFidelity, c.TitleOwnAreaMass} {
		if !(p > 0 && p <= 1) {
			return fmt.Errorf("datagen: biblio fidelity %v outside (0,1]", p)
		}
	}
	if c.LabeledAuthorFrac < 0 || c.LabeledAuthorFrac > 1 {
		return fmt.Errorf("datagen: LabeledAuthorFrac = %v", c.LabeledAuthorFrac)
	}
	if c.LabeledPapers < 0 {
		return fmt.Errorf("datagen: LabeledPapers = %d", c.LabeledPapers)
	}
	if c.CoauthorNoise < 0 {
		return fmt.Errorf("datagen: CoauthorNoise = %d", c.CoauthorNoise)
	}
	return nil
}

// Biblio generates a DBLP-four-area-style network (see the package doc for
// the substitution rationale). Conference c belongs to area c mod NumAreas;
// author a's primary area is a mod NumAreas. Papers pick an area uniformly,
// then a venue and authors mostly from that area.
func Biblio(cfg BiblioConfig) (*Dataset, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	cfg.Text.NumAreas = cfg.NumAreas
	corpus, err := textgen.NewCorpusModel(cfg.Text, rng)
	if err != nil {
		return nil, fmt.Errorf("datagen: corpus: %w", err)
	}

	confArea := make([]int, cfg.NumConfs)
	for c := range confArea {
		confArea[c] = c % cfg.NumAreas
	}
	authorArea := make([]int, cfg.NumAuthors)
	for a := range authorArea {
		authorArea[a] = a % cfg.NumAreas
	}

	papers := make([]paperRec, cfg.NumPapers)

	pickFrom := func(area int, fidelity float64, total int, areaOf []int) int {
		if rng.Float64() < fidelity {
			// Rejection-sample a member of the area (areas are balanced by
			// construction, so this terminates fast).
			for {
				i := rng.Intn(total)
				if areaOf[i] == area {
					return i
				}
			}
		}
		return rng.Intn(total)
	}

	for p := range papers {
		area := rng.Intn(cfg.NumAreas)
		conf := pickFrom(area, cfg.ConfFidelity, cfg.NumConfs, confArea)
		nAuth := 1 + rng.Intn(cfg.AuthorsPerPaper)
		authorSet := make(map[int]bool, nAuth)
		for len(authorSet) < nAuth {
			authorSet[pickFrom(area, cfg.AuthorFidelity, cfg.NumAuthors, authorArea)] = true
		}
		authors := make([]int, 0, len(authorSet))
		for a := range authorSet {
			authors = append(authors, a)
		}
		mixture := make([]float64, cfg.NumAreas)
		leak := (1 - cfg.TitleOwnAreaMass) / float64(cfg.NumAreas)
		for k := range mixture {
			mixture[k] = leak
		}
		mixture[area] += cfg.TitleOwnAreaMass
		terms, err := corpus.SampleTermCounts(rng, mixture, cfg.TitleLength)
		if err != nil {
			return nil, fmt.Errorf("datagen: paper %d title: %w", p, err)
		}
		papers[p] = paperRec{area: area, conf: conf, authors: authors, terms: terms}
	}

	// In DBLP an author exists because they wrote something; guarantee every
	// author appears on at least one paper (preferably of their own area) so
	// no object is fully disconnected.
	hasPaper := make([]bool, cfg.NumAuthors)
	byArea := make([][]int, cfg.NumAreas)
	for p, rec := range papers {
		byArea[rec.area] = append(byArea[rec.area], p)
		for _, a := range rec.authors {
			hasPaper[a] = true
		}
	}
	for a, ok := range hasPaper {
		if ok {
			continue
		}
		pool := byArea[authorArea[a]]
		if len(pool) == 0 {
			pool = allPapers(cfg.NumPapers)
		}
		p := pool[rng.Intn(len(pool))]
		papers[p].authors = append(papers[p].authors, a)
	}

	switch cfg.Schema {
	case SchemaAC:
		return buildAC(cfg, corpus, confArea, authorArea, papers, rng)
	case SchemaACP:
		return buildACP(cfg, corpus, confArea, authorArea, papers, rng)
	default:
		return nil, fmt.Errorf("datagen: unknown schema %v", cfg.Schema)
	}
}

func allPapers(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// paperRec is the intermediate record the generator materializes per paper
// before projecting it into the AC or ACP schema.
type paperRec struct {
	area    int
	conf    int
	authors []int
	terms   map[int]float64
}

func buildAC(cfg BiblioConfig, corpus *textgen.CorpusModel, confArea, authorArea []int, papers []paperRec, rng *rand.Rand) (*Dataset, error) {
	b := hin.NewBuilder()
	b.DeclareAttribute(hin.AttrSpec{Name: AttrText, Kind: hin.Categorical, VocabSize: corpus.VocabSize})
	authorIdx := make([]int, cfg.NumAuthors)
	for a := 0; a < cfg.NumAuthors; a++ {
		authorIdx[a] = b.AddObject(fmt.Sprintf("author%05d", a), TypeAuthor)
	}
	confIdx := make([]int, cfg.NumConfs)
	for c := 0; c < cfg.NumConfs; c++ {
		confIdx[c] = b.AddObject(fmt.Sprintf("conf%02d", c), TypeConf)
	}

	// Aggregate paper titles onto authors and conferences; count link
	// multiplicities for the weighted AC relations.
	acWeight := make(map[[2]int]float64) // (author, conf) → #papers
	coWeight := make(map[[2]int]float64) // (author, author) → #coauthored
	for _, p := range papers {
		for _, a := range p.authors {
			acWeight[[2]int{a, p.conf}]++
			for term, c := range p.terms {
				b.AddTermCountByIndex(authorIdx[a], AttrText, term, c)
			}
		}
		for term, c := range p.terms {
			b.AddTermCountByIndex(confIdx[p.conf], AttrText, term, c)
		}
		for i := 0; i < len(p.authors); i++ {
			for j := 0; j < len(p.authors); j++ {
				if i != j {
					coWeight[[2]int{p.authors[i], p.authors[j]}]++
				}
			}
		}
	}
	for key, w := range acWeight {
		b.AddLinkByIndex(authorIdx[key[0]], confIdx[key[1]], RelPublishIn, w)
		b.AddLinkByIndex(confIdx[key[1]], authorIdx[key[0]], RelPublishedBy, w)
	}
	// Incidental cross-area collaborations (see BiblioConfig.CoauthorNoise).
	for a := 0; a < cfg.NumAuthors; a++ {
		for n := 0; n < cfg.CoauthorNoise; n++ {
			other := rng.Intn(cfg.NumAuthors)
			if other != a {
				coWeight[[2]int{a, other}]++
				coWeight[[2]int{other, a}]++
			}
		}
	}
	for key, w := range coWeight {
		b.AddLinkByIndex(authorIdx[key[0]], authorIdx[key[1]], RelCoauthor, w)
	}

	net, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("datagen: build AC network: %w", err)
	}
	ds := &Dataset{
		Name:        fmt.Sprintf("biblio-AC(A=%d,C=%d,P=%d)", cfg.NumAuthors, cfg.NumConfs, cfg.NumPapers),
		Net:         net,
		NumClusters: cfg.NumAreas,
		Labels:      make(map[int]int),
	}
	for c := 0; c < cfg.NumConfs; c++ {
		ds.Labels[confIdx[c]] = confArea[c]
	}
	labelAuthors(ds, cfg, authorIdx, authorArea, rng)
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	return ds, nil
}

func buildACP(cfg BiblioConfig, corpus *textgen.CorpusModel, confArea, authorArea []int, papers []paperRec, rng *rand.Rand) (*Dataset, error) {
	b := hin.NewBuilder()
	b.DeclareAttribute(hin.AttrSpec{Name: AttrText, Kind: hin.Categorical, VocabSize: corpus.VocabSize})
	authorIdx := make([]int, cfg.NumAuthors)
	for a := 0; a < cfg.NumAuthors; a++ {
		authorIdx[a] = b.AddObject(fmt.Sprintf("author%05d", a), TypeAuthor)
	}
	confIdx := make([]int, cfg.NumConfs)
	for c := 0; c < cfg.NumConfs; c++ {
		confIdx[c] = b.AddObject(fmt.Sprintf("conf%02d", c), TypeConf)
	}
	paperIdx := make([]int, cfg.NumPapers)
	for p := 0; p < cfg.NumPapers; p++ {
		paperIdx[p] = b.AddObject(fmt.Sprintf("paper%05d", p), TypePaper)
	}
	for p, rec := range papers {
		for term, c := range rec.terms {
			b.AddTermCountByIndex(paperIdx[p], AttrText, term, c)
		}
		for _, a := range rec.authors {
			b.AddLinkByIndex(authorIdx[a], paperIdx[p], RelWrite, 1)
			b.AddLinkByIndex(paperIdx[p], authorIdx[a], RelWrittenBy, 1)
		}
		b.AddLinkByIndex(confIdx[rec.conf], paperIdx[p], RelPublishCP, 1)
		b.AddLinkByIndex(paperIdx[p], confIdx[rec.conf], RelPublishedByP, 1)
	}

	net, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("datagen: build ACP network: %w", err)
	}
	ds := &Dataset{
		Name:        fmt.Sprintf("biblio-ACP(A=%d,C=%d,P=%d)", cfg.NumAuthors, cfg.NumConfs, cfg.NumPapers),
		Net:         net,
		NumClusters: cfg.NumAreas,
		Labels:      make(map[int]int),
	}
	for c := 0; c < cfg.NumConfs; c++ {
		ds.Labels[confIdx[c]] = confArea[c]
	}
	labelAuthors(ds, cfg, authorIdx, authorArea, rng)
	// Label a random subset of papers (DBLP labels 100 of 14376).
	perm := rng.Perm(cfg.NumPapers)
	n := cfg.LabeledPapers
	if n > cfg.NumPapers {
		n = cfg.NumPapers
	}
	for _, p := range perm[:n] {
		ds.Labels[paperIdx[p]] = papers[p].area
	}
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	return ds, nil
}

func labelAuthors(ds *Dataset, cfg BiblioConfig, authorIdx, authorArea []int, rng *rand.Rand) {
	n := int(cfg.LabeledAuthorFrac * float64(cfg.NumAuthors))
	perm := rng.Perm(cfg.NumAuthors)
	for _, a := range perm[:n] {
		ds.Labels[authorIdx[a]] = authorArea[a]
	}
}

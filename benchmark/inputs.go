package main

import (
	"fmt"
	"time"

	"bundling"
	"bundling/internal/dataset"
)

// Every input of a run derives from the --seed argument: the generated
// corpora, the offer pools and the closed-loop request schedule. The program under test only
// ever sees the generated values.

const (
	lambda         = 1.25 // WTP conversion factor λ of Eq. 1
	theta          = 0.05 // bundling coefficient θ, inside the paper's Fig. 2 range
	ratingsPerUser = 18
	minDegree      = 5
	poolSize       = 24 // offer families per load corpus in the repeated read pool, as in bundlebench
)

// shape is the size of one generated corpus before k-core filtering.
type shape struct{ Users, Items int }

func (s shape) String() string { return fmt.Sprintf("%d×%d", s.Users, s.Items) }

// Corpus names, the same on every backend. setPure and setMixed share the
// solve-set matrix; pure, mixed and live share the load matrix, and only live
// takes writes.
const (
	setPure  = "set-pure"
	setMixed = "set-mixed"
	fimSet   = "fim"
	pure     = "pure"
	mixed    = "mixed"
	live     = "live"
)

// corpusNames lists the corpora in upload order.
var corpusNames = []string{setPure, setMixed, fimSet, pure, mixed, live}

// setAlgorithms is the solve set run per strategy; freqitemset runs alone on
// the small fim corpora because its mining dominates everything else.
var setAlgorithms = []string{"components", "optimal2", "matching", "greedy"}

const fimAlgorithm = "freqitemset"

// corpus is one named session's matrix and options.
type corpus struct {
	name string
	w    *bundling.Matrix
	opts bundling.Options
}

// corpora is the set-up's input set, one corpus per name.
type corpora struct {
	byName  map[string]*corpus
	genTime time.Duration // wall time of dataset generation and WTP conversion
}

func (c *corpora) get(name string) *corpus { return c.byName[name] }

// corpusSeed derives the dataset generator seed of one generated matrix:
// kind 0 is the load matrix, 1 the solve-set matrices and 2 the fim
// matrices; index numbers the matrices of a kind.
func corpusSeed(seed int64, kind, index int) int64 {
	r := newRNG(seed, uint64(kind)<<32|uint64(index))
	return int64(r.next() >> 1)
}

func generate(s shape, seed int64) (*bundling.Matrix, error) {
	ds, err := dataset.Generate(dataset.GenConfig{
		Users:          s.Users,
		Items:          s.Items,
		RatingsPerUser: ratingsPerUser,
		MinDegree:      minDegree,
		Seed:           seed,
	})
	if err != nil {
		return nil, fmt.Errorf("generate %v corpus: %w", s, err)
	}
	return ds.WTP(lambda)
}

// newCorpus wraps a matrix with the workload's solver options.
func newCorpus(wl *workload, name string, w *bundling.Matrix, strategy bundling.Strategy, parallelism int) *corpus {
	opts := bundling.Options{Strategy: strategy, Theta: theta, Parallelism: parallelism}
	if wl.stripes > 0 {
		opts.StripeSize = (w.Consumers() + wl.stripes - 1) / wl.stripes
	}
	return &corpus{name: name, w: w, opts: opts}
}

// generateCorpora builds the set-up's corpora: the load matrix and the
// first solve-set and fim matrices.
func generateCorpora(wl *workload, seed int64, parallelism int) (*corpora, error) {
	start := time.Now()
	load, err := generate(wl.load, corpusSeed(seed, 0, 0))
	if err != nil {
		return nil, err
	}
	set, fims, err := roundMatrices(wl, seed, 0, 1)
	if err != nil {
		return nil, err
	}
	c := &corpora{byName: map[string]*corpus{}, genTime: time.Since(start)}
	for _, cp := range []*corpus{
		newCorpus(wl, setPure, set, bundling.Pure, parallelism),
		newCorpus(wl, setMixed, set, bundling.Mixed, parallelism),
		newCorpus(wl, fimSet, fims[0], bundling.Pure, parallelism),
		newCorpus(wl, pure, load, bundling.Pure, parallelism),
		newCorpus(wl, mixed, load, bundling.Mixed, parallelism),
		newCorpus(wl, live, load, bundling.Pure, parallelism),
	} {
		c.byName[cp.name] = cp
	}
	return c, nil
}

// roundMatrices generates the solve-set matrix and the fims fim matrices of
// one solve round. Every round solves matrices it has not seen, so a round's
// time is a draw over corpora as well as over machine noise, and the median
// over rounds steadies both.
func roundMatrices(wl *workload, seed int64, round, fims int) (*bundling.Matrix, []*bundling.Matrix, error) {
	set, err := generate(wl.set, corpusSeed(seed, 1, round))
	if err != nil {
		return nil, nil, err
	}
	var fimWs []*bundling.Matrix
	for k := 0; k < fims; k++ {
		w, err := generate(wl.fim, corpusSeed(seed, 2, round*fims+k))
		if err != nil {
			return nil, nil, err
		}
		fimWs = append(fimWs, w)
	}
	return set, fimWs, nil
}

// rng is a splitmix64 generator: tiny, allocation-free and fully determined
// by its seed, so the schedule can derive op i without shared state.
type rng struct{ s uint64 }

func newRNG(seed int64, stream uint64) rng {
	return rng{s: uint64(seed)*0x9E3779B97F4A7C15 ^ (stream+1)*0xD1B54A32D192ED03}
}

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// offers draws four pairwise disjoint offers of one, two, three and four
// items, which is a valid lineup under both pure and mixed bundling. Every
// family has the same shape, so the cost of a read pool depends on which
// items it drew, not on how many.
func (r *rng) offers(items int) [][]int {
	used := make(map[int]bool, 10)
	out := make([][]int, 0, 4)
	for _, k := range r.perm(4) {
		offer := make([]int, 0, k+1)
		for len(offer) < k+1 {
			it := r.intn(items)
			if !used[it] {
				used[it] = true
				offer = append(offer, it)
			}
		}
		out = append(out, offer)
	}
	return out
}

// perm returns a random permutation of 0..n-1.
func (r *rng) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], i
	}
	return p
}

// cells draws a write of 1–4 cell upserts with values in [1, 30).
func (r *rng) cells(consumers, items int) []bundling.DeltaCell {
	n := 1 + r.intn(4)
	out := make([]bundling.DeltaCell, n)
	for i := range out {
		v := 1 + float64(int(r.float()*2900))/100
		out[i] = bundling.DeltaCell{Consumer: r.intn(consumers), Item: r.intn(items), Value: v}
	}
	return out
}

// opKind classifies one closed-loop request.
type opKind int

const (
	readPooled opKind = iota // an offer family from the repeated pool
	readFresh                // a lineup drawn for this request only
	readSolve                // a solve the result cache answers
	write                    // a 1–4 cell upsert on the live corpus
)

// op is one scheduled closed-loop request.
type op struct {
	kind   opKind
	corpus string
	offers [][]int
	alg    string // readSolve only
	cells  []bundling.DeltaCell
}

// The closed loop's traffic is the serve mix of cmd/bundlebench (issue in
// serve.go) with one request in ten turned into a write.
const (
	blockOps = 40 // consecutive requests that read one corpus
	burstOps = 8  // consecutive pooled reads that share one offer family
)

// loadCorpora are the corpora the closed loop reads, one per block.
var loadCorpora = []string{pure, mixed, live}

// loopAlgorithms are the algorithms the closed loop solves where a result
// cache answers them, warmed at set-up on pure and mixed: the two cheapest
// of the solve set, since each set-up pays for their warm solves.
var loopAlgorithms = []string{"components", "optimal2"}

// schedule is the closed-loop request sequence: op i is a pure function of
// the seed and i, so callers claim indices from a shared counter and any run
// with the same seed issues the same requests in the same index order.
type schedule struct {
	seed      int64
	solves    bool                 // the backend caches results, so solves are reads
	pools     map[string][][][]int // per load corpus
	consumers int
	items     int
}

func newSchedule(seed int64, load *bundling.Matrix, solves bool) *schedule {
	s := &schedule{seed: seed, solves: solves, pools: map[string][][][]int{}, consumers: load.Consumers(), items: load.Items()}
	for k, name := range loadCorpora {
		r := newRNG(seed, 3000+uint64(k))
		pool := make([][][]int, poolSize)
		for i := range pool {
			pool[i] = r.offers(s.items)
		}
		s.pools[name] = pool
	}
	return s
}

// op returns request i. Of every ten requests six read a family from the
// pool, two read a fresh lineup, one solves and one writes live. Reads go to
// one corpus per block of blockOps requests, so concurrent neighbours land on
// one session, and pooled reads share one family per burst of burstOps, so a
// burst that misses the cache misses it together: the window the batcher
// coalesces. Solves go to the read-only corpora, where the warm solves keep
// them cached. Without a result cache a solve would be a full solve, timed
// already in the solve sets, so there the solve slot reads the pool.
func (s *schedule) op(i int) op {
	r := newRNG(s.seed, 1<<32+uint64(i))
	name := loadCorpora[(i/blockOps)%len(loadCorpora)]
	switch i % 10 {
	case 9:
		return op{kind: write, corpus: live, cells: r.cells(s.consumers, s.items)}
	case 3, 8:
		return op{kind: readFresh, corpus: name, offers: r.offers(s.items)}
	case 4:
		if s.solves {
			return op{kind: readSolve, corpus: []string{pure, mixed}[(i/10)%2], alg: loopAlgorithms[(i/20)%len(loopAlgorithms)]}
		}
	}
	burst := newRNG(s.seed, 2<<32+uint64(i/burstOps))
	pool := s.pools[name]
	return op{kind: readPooled, corpus: name, offers: pool[burst.intn(len(pool))]}
}

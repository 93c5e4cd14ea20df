package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"

	"bundling"
)

// tolerance is the repository's differential contract: every path matches a
// local from-scratch solve within 1e-9, relative to the revenue's magnitude.
const tolerance = 1e-9

func same(got, want float64) bool {
	return math.Abs(got-want) <= tolerance*(1+math.Abs(want))
}

// solveRec is one timed solve and its result.
type solveRec struct {
	corpus *corpus
	alg    string
	out    outcome
}

// readRec is one closed-loop read and its result: an evaluate of offers, or
// a solve with alg.
type readRec struct {
	corpus string
	offers [][]int
	alg    string
	out    outcome
}

// writeRec is one closed-loop write and the generation it created.
type writeRec struct {
	gen   int
	cells []bundling.DeltaCell
}

// checker holds the shadow sessions every result is compared with: local
// bundling.Solver sessions built from the same matrices and options, which
// take the same writes through ApplyDelta. It runs outside the timed window.
type checker struct {
	shadow map[string]*bundling.Solver // the load corpora

	mu     sync.Mutex // guards failed and notes
	failed int
	notes  []string
}

func newChecker(c *corpora) (*checker, error) {
	k := &checker{shadow: map[string]*bundling.Solver{}}
	for _, name := range []string{pure, mixed, live} {
		cp := c.get(name)
		opts := cp.opts
		opts.Parallelism = 0
		s, err := bundling.NewSolver(cp.w, opts)
		if err != nil {
			return nil, fmt.Errorf("shadow %s: %w", name, err)
		}
		k.shadow[name] = s
	}
	return k, nil
}

func (k *checker) fail(format string, args ...any) {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.failed++
	if len(k.notes) < 8 {
		k.notes = append(k.notes, fmt.Sprintf(format, args...))
	}
}

// offersKey is an offer family's identity independent of order.
func offersKey(offers [][]int) string {
	sets := make([]string, len(offers))
	for i, off := range offers {
		c := append([]int(nil), off...)
		sort.Ints(c)
		parts := make([]string, len(c))
		for j, it := range c {
			parts[j] = strconv.Itoa(it)
		}
		sets[i] = strings.Join(parts, ",")
	}
	sort.Strings(sets)
	return strings.Join(sets, ";")
}

// memo prices offer families, and solves, on one shadow session, once each.
type memo struct {
	s    *bundling.Solver
	seen map[string]float64
}

func newMemo(s *bundling.Solver) *memo { return &memo{s: s, seen: map[string]float64{}} }

func (m *memo) evaluate(offers [][]int) (float64, error) {
	key := offersKey(offers)
	if v, ok := m.seen[key]; ok {
		return v, nil
	}
	cfg, err := m.s.Evaluate(offers)
	if err != nil {
		return 0, err
	}
	m.seen[key] = cfg.Revenue
	return cfg.Revenue, nil
}

func (m *memo) solve(alg string) (float64, error) {
	key := "solve " + alg
	if v, ok := m.seen[key]; ok {
		return v, nil
	}
	a, err := bundling.AlgorithmByName(alg)
	if err != nil {
		return 0, err
	}
	cfg, err := m.s.Solve(a)
	if err != nil {
		return 0, err
	}
	m.seen[key] = cfg.Revenue
	return cfg.Revenue, nil
}

// checkSolves gates every timed solve against a shadow session of the
// corpus it ran on. Three gates apply: the revenue equals Evaluate of the
// solve's own offers; it is at least the Components revenue; and on a remote
// backend it equals the local solve of the same algorithm. Corpora are
// checked in parallel, one shadow each.
func (k *checker) checkSolves(recs []solveRec, remote bool) {
	byCorpus := map[*corpus][]solveRec{}
	var order []*corpus
	for _, r := range recs {
		if byCorpus[r.corpus] == nil {
			order = append(order, r.corpus)
		}
		byCorpus[r.corpus] = append(byCorpus[r.corpus], r)
	}
	work := make(chan *corpus)
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for cp := range work {
				k.checkCorpusSolves(cp, byCorpus[cp], remote)
			}
		}()
	}
	for _, cp := range order {
		work <- cp
	}
	close(work)
	wg.Wait()
}

func (k *checker) checkCorpusSolves(cp *corpus, recs []solveRec, remote bool) {
	opts := cp.opts
	opts.Parallelism = 1
	shadow, err := bundling.NewSolver(cp.w, opts)
	if err != nil {
		k.fail("shadow %s: %v", cp.name, err)
		return
	}
	solve := func(alg string) (float64, error) {
		a, err := bundling.AlgorithmByName(alg)
		if err != nil {
			return 0, err
		}
		cfg, err := shadow.Solve(a)
		if err != nil {
			return 0, err
		}
		return cfg.Revenue, nil
	}
	comp, err := solve("components")
	if err != nil {
		k.fail("%s: components: %v", cp.name, err)
		return
	}
	m := newMemo(shadow)
	for _, r := range recs {
		ev, err := m.evaluate(r.out.offers)
		switch {
		case err != nil:
			k.fail("%s/%s: evaluate own offers: %v", cp.name, r.alg, err)
			continue
		case !same(r.out.revenue, ev):
			k.fail("%s/%s: revenue %.12g, evaluate of its offers %.12g", cp.name, r.alg, r.out.revenue, ev)
			continue
		case r.out.revenue < comp-tolerance*(1+math.Abs(comp)):
			k.fail("%s/%s: revenue %.12g below components %.12g", cp.name, r.alg, r.out.revenue, comp)
			continue
		}
		if !remote {
			continue
		}
		local, err := solve(r.alg)
		if err != nil {
			k.fail("%s/%s: local solve: %v", cp.name, r.alg, err)
		} else if !same(r.out.revenue, local) {
			k.fail("%s/%s: revenue %.12g, local solve %.12g", cp.name, r.alg, r.out.revenue, local)
		}
	}
}

// checkLoad gates every closed-loop result against the shadows. Writes must
// have created the generations base+1, base+2, … exactly once each; the live
// shadow replays them in that order, and every live read is compared with
// the shadow at the generation the backend reported for it. Live reads are
// checked on one goroutine and the read-only corpora on the others.
func (k *checker) checkLoad(reads []readRec, writes []writeRec, base int) {
	sort.Slice(writes, func(i, j int) bool { return writes[i].gen < writes[j].gen })
	for i, w := range writes {
		if w.gen != base+1+i {
			k.fail("write %d created generation %d, want %d", i, w.gen, base+1+i)
			return
		}
	}
	var liveReads, others []readRec
	for _, r := range reads {
		if r.corpus == live {
			liveReads = append(liveReads, r)
		} else {
			others = append(others, r)
		}
	}
	sort.SliceStable(liveReads, func(i, j int) bool { return liveReads[i].out.gen < liveReads[j].out.gen })
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		k.checkLive(liveReads, writes, base)
	}()
	workers := max(1, runtime.NumCPU()-1)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			memos := map[string]*memo{}
			for i := w; i < len(others); i += workers {
				r := others[i]
				m := memos[r.corpus]
				if m == nil {
					m = newMemo(k.shadow[r.corpus])
					memos[r.corpus] = m
				}
				k.checkRead(m, r)
			}
		}(w)
	}
	wg.Wait()
}

// checkLive replays the writes on the live shadow in generation order while
// checking the live reads, which arrive sorted by generation.
func (k *checker) checkLive(reads []readRec, writes []writeRec, base int) {
	shadow := k.shadow[live]
	m := newMemo(shadow)
	gen := base
	for _, r := range reads {
		if r.out.gen > gen && r.out.gen-base <= len(writes) {
			// Later cells of one delta override earlier ones, so the writes
			// up to the read's generation apply as one delta.
			var cells []bundling.DeltaCell
			for _, w := range writes[gen-base : r.out.gen-base] {
				cells = append(cells, w.cells...)
			}
			next, err := shadow.ApplyDelta(cells)
			if err != nil {
				k.fail("shadow writes %d..%d: %v", gen+1, r.out.gen, err)
				return
			}
			shadow, m, gen = next, newMemo(next), r.out.gen
		}
		if r.out.gen != gen {
			k.fail("live read at generation %d, writes reach %d", r.out.gen, gen)
			continue
		}
		k.checkRead(m, r)
	}
}

func (k *checker) checkRead(m *memo, r readRec) {
	var want float64
	var err error
	if r.alg != "" {
		want, err = m.solve(r.alg)
	} else {
		want, err = m.evaluate(r.offers)
	}
	if err != nil {
		k.fail("%s: shadow read: %v", r.corpus, err)
	} else if !same(r.out.revenue, want) {
		k.fail("%s@%d %v%s: revenue %.12g, shadow %.12g", r.corpus, r.out.gen, r.offers, r.alg, r.out.revenue, want)
	}
}

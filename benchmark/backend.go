package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bundling"
	"bundling/client"
	"bundling/internal/cluster"
	"bundling/internal/server"
)

// A backend is the stack a workload drives: the library, the bundled server
// behind its client, or a cluster coordinator over a worker fleet. The
// harness issues the same calls to each.
type backend interface {
	// install puts a corpus on the backend under name, replacing any corpus
	// of that name with a new generation. It returns once the backend holds
	// the corpus and has finished retiring the one it replaced.
	install(name string, cp *corpus) error
	solve(ctx context.Context, corpus, alg string) (outcome, error)
	evaluate(ctx context.Context, corpus string, offers [][]int) (outcome, error)
	// patch applies a delta to a corpus and returns the generation it created.
	patch(ctx context.Context, corpus string, cells []bundling.DeltaCell) (int, error)
	// generation is the corpus's current generation.
	generation(corpus string) int
	// counters reads cumulative counters the program already keeps, such as
	// the fleet's RPC and wire-byte totals; nil when the backend has none.
	counters() map[string]float64
	close()
}

// outcome is one solve or evaluate result as the harness checks it.
type outcome struct {
	revenue    float64
	offers     [][]int // every priced offer's items: bundles, then retained components
	bundles    int     // top-level offers
	iterations int
	gen        int  // corpus generation the result was computed on
	cached     bool // served from the server's result cache
	batched    bool // coalesced into a concurrent identical evaluate
}

// outcomeOf converts a configuration; withOffers keeps the priced offers,
// which only solve results need.
func outcomeOf(cfg *bundling.Configuration, gen int, withOffers bool) outcome {
	o := outcome{revenue: cfg.Revenue, bundles: len(cfg.Bundles), iterations: cfg.Iterations, gen: gen}
	if withOffers {
		for _, b := range cfg.Offers() {
			o.offers = append(o.offers, b.Items)
		}
	}
	return o
}

// --- library and fleet: sessions held in-process ------------------------------

// engine is the session surface shared by bundling.Solver and cluster.Solver.
type engine interface {
	SolveContext(ctx context.Context, a bundling.Algorithm) (*bundling.Configuration, error)
	EvaluateContext(ctx context.Context, offers [][]int) (*bundling.Configuration, error)
}

// snapshot is one generation of a corpus session. refs counts the slot's own
// reference plus every in-flight call; the last release runs retire.
type snapshot struct {
	eng    engine
	gen    int
	refs   atomic.Int64
	retire func(engine)
}

func (s *snapshot) release() {
	if s.refs.Add(-1) == 0 && s.retire != nil {
		s.retire(s.eng)
	}
}

// slot holds a corpus's current snapshot. Writers derive the next generation
// under mu and swap it in; readers never block.
type slot struct {
	mu  sync.Mutex
	cur atomic.Pointer[snapshot]
}

func (sl *slot) acquire() *snapshot {
	for {
		s := sl.cur.Load()
		if n := s.refs.Load(); n > 0 && s.refs.CompareAndSwap(n, n+1) {
			return s
		}
	}
}

// direct drives engines held in this process: bundling.Solver sessions for
// the library backend, cluster.Solver coordinators for the fleet backend.
type direct struct {
	slots   map[string]*slot
	build   func(cp *corpus) (engine, error)
	derive  func(e engine, cells []bundling.DeltaCell) (engine, error)
	retire  func(engine)
	settled func(engine) error // waits out the background work of an install
	stop    func()
	wire    func() map[string]float64
}

func (d *direct) install(name string, cp *corpus) error {
	e, err := d.build(cp)
	if err != nil {
		return fmt.Errorf("index %s: %w", name, err)
	}
	sl := d.slots[name]
	if sl == nil {
		sl = &slot{}
		d.slots[name] = sl
	}
	d.swap(sl, e)
	if d.settled != nil {
		return d.settled(e)
	}
	return nil
}

// swap makes e the slot's next generation and releases the previous one.
func (d *direct) swap(sl *slot, e engine) int {
	s := &snapshot{eng: e, retire: d.retire}
	s.refs.Store(1)
	old := sl.cur.Load()
	if old != nil {
		s.gen = old.gen + 1
	}
	sl.cur.Store(s)
	if old != nil {
		old.release()
	}
	return s.gen
}

func (d *direct) solve(ctx context.Context, corpus, alg string) (outcome, error) {
	a, err := bundling.AlgorithmByName(alg)
	if err != nil {
		return outcome{}, err
	}
	s := d.slots[corpus].acquire()
	defer s.release()
	cfg, err := s.eng.SolveContext(ctx, a)
	if err != nil {
		return outcome{}, err
	}
	return outcomeOf(cfg, s.gen, true), nil
}

func (d *direct) evaluate(ctx context.Context, corpus string, offers [][]int) (outcome, error) {
	s := d.slots[corpus].acquire()
	defer s.release()
	cfg, err := s.eng.EvaluateContext(ctx, offers)
	if err != nil {
		return outcome{}, err
	}
	return outcomeOf(cfg, s.gen, false), nil
}

func (d *direct) patch(_ context.Context, corpus string, cells []bundling.DeltaCell) (int, error) {
	sl := d.slots[corpus]
	sl.mu.Lock()
	defer sl.mu.Unlock()
	e, err := d.derive(sl.cur.Load().eng, cells)
	if err != nil {
		return 0, err
	}
	return d.swap(sl, e), nil
}

func (d *direct) generation(corpus string) int { return d.slots[corpus].cur.Load().gen }

func (d *direct) counters() map[string]float64 {
	if d.wire == nil {
		return nil
	}
	return d.wire()
}

func (d *direct) close() {
	for _, sl := range d.slots {
		sl.cur.Load().release()
	}
	if d.stop != nil {
		d.stop()
	}
}

// countedSolver is a traced library session and the counting executor it
// computes its vectors on.
type countedSolver struct {
	*bundling.Solver
	exec countingExec
}

// openLibrary holds bundling.Solver sessions. Traced, each session computes
// its vectors on a counting executor around its matrix's shard, and a write
// derives the next session on a counting executor around the patched shard.
func openLibrary(tr *tracer) (backend, error) {
	d := &direct{slots: map[string]*slot{}}
	d.build = func(cp *corpus) (engine, error) {
		if tr == nil {
			return bundling.NewSolver(cp.w, cp.opts)
		}
		exec := tr.executor(cp.w, cp.opts.StripeSize)
		s, err := bundling.NewSolverOn(cp.w, cp.opts, exec)
		return countedSolver{s, exec}, err
	}
	d.derive = func(e engine, cells []bundling.DeltaCell) (engine, error) {
		cs, ok := e.(countedSolver)
		if !ok {
			return e.(*bundling.Solver).ApplyDelta(cells)
		}
		exec, err := cs.exec.patched(cells)
		if err != nil {
			return nil, err
		}
		s, err := cs.ApplyDeltaOn(cells, exec)
		return countedSolver{s, exec}, err
	}
	return d, nil
}

// openFleet starts the workers as in-process HTTP servers on loopback and
// builds one cluster coordinator per corpus over them, on the binary feed.
func openFleet(tr *tracer, workers int) (backend, error) {
	var servers []*httptest.Server
	var nodes []*cluster.Worker
	var wires []*cluster.HTTP
	var transports []cluster.Transport
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 64}}
	for i := 0; i < workers; i++ {
		wk := cluster.NewWorker(cluster.WorkerConfig{})
		nodes = append(nodes, wk)
		ts := httptest.NewServer(wk.Handler())
		servers = append(servers, ts)
		h := cluster.NewHTTP(ts.URL, hc)
		wires = append(wires, h)
		if tr != nil {
			transports = append(transports, tr.transport(h))
		} else {
			transports = append(transports, h)
		}
	}
	var retired cluster.Stats
	var retiredMu sync.Mutex
	var closing sync.WaitGroup
	d := &direct{slots: map[string]*slot{}}
	// A retired coordinator drops its worker spans in the background, so the
	// call that released it last does not pay for the drop RPCs.
	d.retire = func(e engine) {
		cs := e.(*cluster.Solver)
		st := cs.ClusterStats()
		retiredMu.Lock()
		addStats(&retired, st)
		retiredMu.Unlock()
		closing.Add(1)
		go func() {
			defer closing.Done()
			_ = cs.Close() // best effort: a worker that lost the span has nothing to drop
		}()
	}
	// A new coordinator feeds its spans in the background. Install waits for
	// every span to reach its worker, and for the replaced coordinator's drops,
	// so neither overlaps what is timed after it.
	d.settled = func(e engine) error {
		closing.Wait()
		cs := e.(*cluster.Solver)
		want := min(len(nodes), max(1, cs.Stats().Stripes))
		prefix := cs.Corpus() + "/"
		for deadline := time.Now().Add(time.Minute); ; {
			fed := 0
			for _, wk := range nodes {
				for _, sp := range wk.Health().Spans {
					if strings.HasPrefix(sp.Corpus, prefix) {
						fed++
					}
				}
			}
			if fed >= want {
				return nil
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("fleet: %d of %d spans of %s fed after a minute", fed, want, cs.Corpus())
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	d.stop = func() {
		closing.Wait()
		for _, ts := range servers {
			ts.Close()
		}
		hc.CloseIdleConnections()
	}
	d.wire = func() map[string]float64 {
		retiredMu.Lock()
		total := retired
		retiredMu.Unlock()
		for _, sl := range d.slots {
			s := sl.acquire()
			addStats(&total, s.eng.(*cluster.Solver).ClusterStats())
			s.release()
		}
		var bytes, feed int64
		for _, h := range wires {
			b := h.Bytes()
			bytes += b.BytesOut + b.BytesIn
			feed += b.FeedBin + b.FeedLegacy
		}
		return map[string]float64{
			"rpcs":      float64(total.RemoteCalls),
			"retries":   float64(total.ReplicaRetries),
			"fallbacks": float64(total.LocalFallbacks),
			"refeeds":   float64(total.Refeeds),
			"bytes":     float64(bytes),
			"feed":      float64(feed),
		}
	}
	d.build = func(cp *corpus) (engine, error) {
		return cluster.NewSolver(cp.w, cp.opts, cluster.Config{Workers: transports})
	}
	d.derive = func(e engine, cells []bundling.DeltaCell) (engine, error) {
		return e.(*cluster.Solver).ApplyDelta(cells)
	}
	return d, nil
}

func addStats(dst *cluster.Stats, s cluster.Stats) {
	dst.RemoteCalls += s.RemoteCalls
	dst.ReplicaRetries += s.ReplicaRetries
	dst.LocalFallbacks += s.LocalFallbacks
	dst.Refeeds += s.Refeeds
}

// --- serve: the bundled server behind its client ------------------------------

// storeRoot is the directory the serve workload's corpus stores are made in:
// the build directory of the checkout the benchmark runs from.
var storeRoot = ".bench_build"

// served drives an in-process bundled server with shipped defaults through
// the public client. With persist it also holds a corpus store, as the daemon
// runs with -data-dir, so uploads and writes are journalled and fsynced.
type served struct {
	cl    *client.Client
	ts    *httptest.Server
	srv   *server.Server
	store *server.Store // nil without persist
	rt    *http.Transport
	gens  map[string]*atomic.Int64 // fixed keys: the corpus names
}

func openServe(tr *tracer, persist bool) (backend, error) {
	var store *server.Store
	if persist {
		if err := os.MkdirAll(storeRoot, 0o755); err != nil {
			return nil, err
		}
		dir, err := os.MkdirTemp(storeRoot, "store-")
		if err != nil {
			return nil, err
		}
		if store, err = server.OpenStore(dir); err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
	}
	srv := server.New(server.Config{Store: store})
	s := &served{ts: httptest.NewServer(srv.Handler()), srv: srv, store: store,
		rt: &http.Transport{MaxIdleConnsPerHost: 16}, gens: map[string]*atomic.Int64{}}
	var rt http.RoundTripper = s.rt
	if tr != nil {
		rt = tr.roundTripper(s.rt)
	}
	s.cl = client.New(s.ts.URL, &http.Client{Transport: rt})
	if tr != nil {
		tr.scrape = s.cl.Metrics
	}
	for _, name := range corpusNames {
		s.gens[name] = &atomic.Int64{}
	}
	return s, nil
}

func (s *served) install(name string, cp *corpus) error {
	info, err := s.cl.UploadMatrixBin(context.Background(), name, cp.w, cp.opts)
	if err != nil {
		return fmt.Errorf("upload %s: %w", name, err)
	}
	s.gens[name].Store(int64(info.Version))
	return nil
}

func configOutcome(d server.ConfigDoc, gen int, withOffers bool) outcome {
	o := outcome{revenue: d.Revenue, bundles: len(d.Bundles), iterations: d.Iterations, gen: gen}
	if withOffers {
		for _, b := range append(d.Bundles, d.Components...) {
			o.offers = append(o.offers, b.Items)
		}
	}
	return o
}

func (s *served) solve(ctx context.Context, corpus, alg string) (outcome, error) {
	resp, err := s.cl.Solve(ctx, corpus, alg)
	if err != nil {
		return outcome{}, err
	}
	o := configOutcome(resp.Config, resp.Version, true)
	o.cached = resp.Cached
	return o, nil
}

func (s *served) evaluate(ctx context.Context, corpus string, offers [][]int) (outcome, error) {
	resp, err := s.cl.Evaluate(ctx, corpus, offers)
	if err != nil {
		return outcome{}, err
	}
	o := configOutcome(resp.Config, resp.Version, false)
	o.cached, o.batched = resp.Cached, resp.Batched
	return o, nil
}

func (s *served) patch(ctx context.Context, corpus string, cells []bundling.DeltaCell) (int, error) {
	resp, err := s.cl.PatchCorpusBin(ctx, corpus, 0, cells)
	if err != nil {
		return 0, err
	}
	s.gens[corpus].Store(int64(resp.Version))
	return resp.Version, nil
}

func (s *served) generation(corpus string) int { return int(s.gens[corpus].Load()) }

func (s *served) counters() map[string]float64 { return nil }

func (s *served) close() {
	s.ts.Close()
	s.srv.Close()
	s.rt.CloseIdleConnections()
	if s.store != nil {
		_ = s.store.Close() // the store is removed next; its last compaction is moot
		os.RemoveAll(s.store.Dir())
	}
}

package main

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"bundling"
)

// workload is one input set and the stack it runs through. Every workload
// runs the same phases: set-up, rounds of solve sets, and a closed loop of
// reads and writes.
type workload struct {
	name, why      string
	set, fim, load shape
	fimPer         int  // fresh fim matrices per round, beside one solve-set matrix
	stripes        int  // >0 cuts each corpus into this many stripes
	fanout         int  // closed-loop requests a caller issues at once
	remote         bool // results cross a wire and are compared with local solves
	resultCache    bool // the backend caches results, so the closed loop also solves
	unlisted       bool // runnable, but not a workload of BENCHMARK.json
	// probe is a workload whose traced pass supplies this one's cluster.*
	// layers in its traced run.
	probe *workload
	// open starts the backend; persist asks the server for a corpus store.
	open func(tr *tracer, persist bool) (backend, error)
}

// fleet drives a cluster coordinator over loopback HTTP workers. It is not
// in BENCHMARK.json: on a shared two-core VM its timings follow the host's
// loopback and wake-up latency; the pure set of one seed took 0.72 to 1.28 s
// over five runs of the same code, and up to 2.6 times as long in a slow
// spell, past any bound a regression check could use. The solve
// workload's traced run measures its layers, and --workload fleet still runs
// it whole.
var fleet = &workload{
	name: "fleet",
	why:  "cluster coordinator over loopback HTTP workers: worker RPCs, the codec and net/http dominate, with no server in front",
	set:  shape{150, 40}, fim: shape{100, 30}, load: shape{200, 50}, fimPer: 3, stripes: 8, fanout: 1,
	remote: true, unlisted: true,
	open: func(tr *tracer, _ bool) (backend, error) { return openFleet(tr, runtime.NumCPU()) },
}

var workloads = []*workload{
	{
		name: "solve",
		why:  "the paper's own workload on the library: config, pricing, wtp, matching and fim do the work; server, codec and cluster do none",
		set:  shape{600, 150}, fim: shape{200, 60}, load: shape{600, 150}, fimPer: 6, fanout: 1,
		probe: fleet,
		open:  func(tr *tracer, _ bool) (backend, error) { return openLibrary(tr) },
	},
	{
		name: "serve",
		why:  "bundled server behind its client: most reads are result-cache hits, so decode, cache and encode dominate; writes invalidate cached results",
		set:  shape{600, 150}, fim: shape{200, 60}, load: shape{600, 150}, fimPer: 6, fanout: serveFanout,
		remote: true, resultCache: true,
		open: openServe,
	},
	fleet,
}

// callers is the closed loop's caller count, one per CPU.
func callers() int { return runtime.NumCPU() }

// serveFanout is how many requests a serve caller issues at once, as a
// dashboard fires its panels' queries together. On two CPUs that keeps eight
// requests in flight, the concurrency of bundlebench's serve experiment.
// Fewer would starve the server's group-commit batcher: two identical
// evaluates coalesce only when both queue behind a third pass, which two
// synchronous callers never produce. The library and the fleet have no
// batcher, so their callers issue one request at a time and the latencies
// they report are the stack's own rather than queueing behind a saturated
// CPU.
const serveFanout = 4

func workloadByName(name string) (*workload, error) {
	for _, wl := range workloads {
		if wl.name == name {
			return wl, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

const setupRuns = 7 // set-ups per pass; setup_s is their median

// pass is one measured run of a workload: its samples, the result of the
// correctness gates, and what the traced seams counted.
type pass struct {
	setups             []float64 // seconds
	pure, mixed, fim   []float64 // seconds per solve-set round
	reads, writes      []float64 // closed-loop latencies, ms
	rates              []float64 // closed-loop ops per second, per slice
	loadSeconds        float64
	genTime, indexTime time.Duration // of the last set-up
	attempted, failed  int
	notes              []string
	corpora            *corpora
	props              map[string]float64
	layers             map[string]float64
	rss                []float64 // MB, the highest resident set sampled in each round
}

// loadRec is one completed closed-loop op, kept small so the harness's own
// memory barely grows with throughput: the op itself is regenerated from its
// schedule index when the results are checked.
type loadRec struct {
	i        int     // schedule index
	gen      int     // generation read, or created by a write
	revenue  float64 // reads only
	ms       float64 // latency
	cached   bool
	coalesce bool
}

// callerLog is one closed-loop caller's record.
type callerLog struct {
	recs   []loadRec
	errs   int
	errMsg string
}

func (l *callerLog) fail(err error) {
	l.errs++
	if l.errMsg == "" {
		l.errMsg = err.Error()
	}
}

// runPass sets the workload up setupRuns times, keeps the last set-up, and
// measures it for window in rounds of solve sets and closed-loop slices.
// parallelism caps candidate-pricing workers (0 = GOMAXPROCS, as shipped);
// traced adds the counting wrappers; persist gives the server a corpus store.
func runPass(wl *workload, seed int64, window time.Duration, parallelism int, traced, persist bool) (*pass, error) {
	var tr *tracer
	p := &pass{props: map[string]float64{}, layers: map[string]float64{}}
	var b backend
	var sched *schedule
	ctx := context.Background()
	for i := 0; i < setupRuns; i++ {
		if b != nil {
			b.close()
			b = nil
			runtime.GC() // each set-up starts from the same heap
		}
		if traced {
			tr = newTracer()
		}
		start := time.Now()
		c, err := generateCorpora(wl, seed, parallelism)
		if err != nil {
			return nil, err
		}
		b, err = wl.open(tr, persist)
		if err != nil {
			return nil, err
		}
		var index time.Duration
		for _, name := range corpusNames {
			t0 := time.Now()
			err := b.install(name, c.get(name))
			index += time.Since(t0)
			if err != nil {
				b.close()
				return nil, err
			}
		}
		sched = newSchedule(seed, c.get(live).w, wl.resultCache)
		if err := warm(ctx, b, sched); err != nil {
			b.close()
			return nil, err
		}
		p.setups = append(p.setups, time.Since(start).Seconds())
		p.corpora, p.genTime, p.indexTime = c, c.genTime, index
	}
	defer b.close()
	chk, err := newChecker(p.corpora)
	if err != nil {
		return nil, err
	}

	var ms0, ms1 runtime.MemStats
	scrape0, err := tr.scrapeMetrics()
	if err != nil {
		return nil, err
	}
	wire0 := b.counters()
	tr.markSetup()
	debug.FreeOSMemory() // the window starts without the set-ups' garbage
	runtime.ReadMemStats(&ms0)
	rss := sampleRSS()
	defer rss.stop()
	start := time.Now()
	liveBase := b.generation(live)

	// The window is a sequence of rounds, each a solve-set pass followed by
	// a closed-loop slice half as long, so that both kinds of sample are
	// spread over the whole window and a slow spell of the host lands in a
	// few rounds of each rather than in all of one kind. The solve sets get
	// the larger share: a round gives each one sample, a slice thousands.
	var solves []solveRec
	solveWire := map[string]float64{}  // fleet RPCs and bytes inside the timed solves
	loopScrape := map[string]float64{} // server counters gained in the slices
	loopWire := map[string]float64{}   // fleet counters gained in the slices
	var loopHTTP [2]int64              // client requests and response bytes in the slices
	logs := make([]callerLog, callers())
	var next atomic.Int64
	for round := 0; ; round++ {
		roundStart := time.Now()
		if err := p.solveRound(ctx, wl, b, tr, seed, round, parallelism, &solves, solveWire); err != nil {
			return nil, err
		}
		before, err := tr.scrapeMetrics()
		if err != nil {
			return nil, err
		}
		w0 := b.counters()
		var h0 [2]int64
		if tr != nil {
			h0 = [2]int64{tr.requests.Load(), tr.respBytes.Load()}
		}
		// A window too short for one pass still gets a fortieth of it as load.
		slice := max(time.Since(roundStart)/2, window/40)
		ops, took := runSlice(ctx, wl, b, sched, logs, &next, time.Now().Add(slice))
		p.rates = append(p.rates, float64(ops)/took.Seconds())
		p.loadSeconds += took.Seconds()
		after, err := tr.scrapeMetrics()
		if err != nil {
			return nil, err
		}
		for k, v := range after {
			loopScrape[k] += v - before[k]
		}
		for k, v := range b.counters() {
			loopWire[k] += v - w0[k]
		}
		p.rss = append(p.rss, rss.take())
		if tr != nil {
			loopHTTP[0] += tr.requests.Load() - h0[0]
			loopHTTP[1] += tr.respBytes.Load() - h0[1]
		}
		// Stop when another round of the same length would overrun.
		if elapsed := time.Since(start); elapsed+time.Since(roundStart) > window {
			break
		}
	}
	runtime.ReadMemStats(&ms1)
	scrape1, err := tr.scrapeMetrics()
	if err != nil {
		return nil, err
	}
	wire1 := b.counters()

	var reads []readRec
	var writes []writeRec
	var cached, batched, clientS float64
	for _, l := range logs {
		p.attempted += len(l.recs) + l.errs
		p.failed += l.errs
		if l.errMsg != "" {
			p.note("closed loop: %s", l.errMsg)
		}
		for _, r := range l.recs {
			clientS += r.ms / 1000
			o := sched.op(r.i)
			if o.kind == write {
				p.writes = append(p.writes, r.ms)
				writes = append(writes, writeRec{gen: r.gen, cells: o.cells})
				continue
			}
			p.reads = append(p.reads, r.ms)
			reads = append(reads, readRec{corpus: o.corpus, offers: o.offers, alg: o.alg, out: outcome{revenue: r.revenue, gen: r.gen}})
			if r.cached {
				cached++
			}
			if r.coalesce {
				batched++
			}
		}
	}

	// Correctness gates, outside the timed window.
	chk.checkSolves(solves, wl.remote)
	chk.checkLoad(reads, writes, liveBase)
	p.failed += chk.failed
	p.notes = append(p.notes, chk.notes...)

	ops := float64(len(reads) + len(writes))
	if ops > 0 {
		p.props["write_share"] = float64(len(writes)) / ops
	}
	if len(reads) > 0 {
		p.props["cache_hit_share"] = cached / float64(len(reads))
		p.props["coalesced_share"] = batched / float64(len(reads))
	}
	nSolves := float64(len(solves))
	if wire0 != nil && nSolves > 0 && ops > 0 {
		p.props["rpc_per_solve"] = solveWire["rpcs"] / nSolves
		p.props["bytes_per_solve"] = solveWire["bytes"] / nSolves
		p.props["rpc_per_op"] = loopWire["rpcs"] / ops
		p.props["bytes_per_op"] = loopWire["bytes"] / ops
		if len(writes) > 0 {
			p.props["refeeds_per_write"] = loopWire["refeeds"] / float64(len(writes))
		}
	}

	if tr != nil {
		p.fillLayers(tr, &ms0, &ms1, [2]map[string]float64{scrape0, scrape1}, loopScrape, wire0, wire1, loopHTTP, clientS)
	}
	return p, nil
}

// solveRound runs one round of solve sets from one caller. It installs fresh
// matrices (untimed) as new generations, so no result cache answers a solve,
// then times the pure set, the mixed set and freqitemset over them.
func (p *pass) solveRound(ctx context.Context, wl *workload, b backend, tr *tracer, seed int64, round, parallelism int, solves *[]solveRec, wire map[string]float64) error {
	set, fims, err := roundMatrices(wl, seed, round+1, wl.fimPer)
	if err != nil {
		return err
	}
	run := func(cp *corpus, algs []string) float64 {
		if err := b.install(cp.name, cp); err != nil {
			p.attempted++
			p.failed++
			p.note("%v", err)
			return 0
		}
		w0 := b.counters()
		t0 := time.Now()
		for _, alg := range algs {
			p.attempted++
			out, err := tr.tracedSolve(ctx, alg == fimAlgorithm, cp.w.Items(), func(ctx context.Context) (outcome, error) {
				return b.solve(ctx, cp.name, alg)
			})
			if err != nil {
				p.failed++
				p.note("solve %s/%s: %v", cp.name, alg, err)
				continue
			}
			if out.cached {
				p.props["solve_cache_hits"]++
			}
			*solves = append(*solves, solveRec{corpus: cp, alg: alg, out: out})
		}
		elapsed := time.Since(t0).Seconds()
		for k, v := range b.counters() {
			wire[k] += v - w0[k]
		}
		return elapsed
	}
	pureS := run(newCorpus(wl, setPure, set, bundling.Pure, parallelism), setAlgorithms)
	mixedS := run(newCorpus(wl, setMixed, set, bundling.Mixed, parallelism), setAlgorithms)
	var fimS float64
	for _, w := range fims {
		fimS += run(newCorpus(wl, fimSet, w, bundling.Pure, parallelism), []string{fimAlgorithm})
	}
	p.pure, p.mixed, p.fim = append(p.pure, pureS), append(p.mixed, mixedS), append(p.fim, fimS)
	return nil
}

// runSlice runs the closed loop until deadline and returns how many ops
// completed and how long that took. Each caller claims the next wl.fanout
// ops of the schedule, issues them at once and waits for all of them before
// claiming more; logs and next carry over from slice to slice. Writes are
// serialized on the client side, so generations chain; their latency is
// timed after the lock.
func runSlice(ctx context.Context, wl *workload, b backend, sched *schedule, logs []callerLog, next *atomic.Int64, deadline time.Time) (int, time.Duration) {
	var writeMu sync.Mutex
	issue := func(i int) (loadRec, error) {
		o := sched.op(i)
		r := loadRec{i: i}
		var err error
		if o.kind == write {
			writeMu.Lock()
			t0 := time.Now()
			r.gen, err = b.patch(ctx, o.corpus, o.cells)
			r.ms = float64(time.Since(t0)) / 1e6
			writeMu.Unlock()
			return r, err
		}
		t0 := time.Now()
		var out outcome
		if o.kind == readSolve {
			out, err = b.solve(ctx, o.corpus, o.alg)
		} else {
			out, err = b.evaluate(ctx, o.corpus, o.offers)
		}
		r.ms = float64(time.Since(t0)) / 1e6
		r.gen, r.revenue, r.cached, r.coalesce = out.gen, out.revenue, out.cached, out.batched
		return r, err
	}
	var ops atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for ci := range logs {
		wg.Add(1)
		go func(l *callerLog) {
			defer wg.Done()
			fanout := wl.fanout
			recs := make([]loadRec, fanout)
			errs := make([]error, fanout)
			for time.Now().Before(deadline) {
				first := int(next.Add(int64(fanout))) - fanout
				var burst sync.WaitGroup
				for k := range fanout {
					burst.Add(1)
					go func() {
						defer burst.Done()
						recs[k], errs[k] = issue(first + k)
					}()
				}
				burst.Wait()
				for k := range fanout {
					if errs[k] != nil {
						l.fail(errs[k])
					} else {
						l.recs = append(l.recs, recs[k])
					}
				}
				ops.Add(int64(fanout))
			}
		}(&logs[ci])
	}
	wg.Wait()
	return int(ops.Load()), time.Since(start)
}

// warm readies a set-up for timing: it reads every pooled offer family, so
// caches fill and first-use pools are built, and where a result cache answers
// the closed loop's solves it runs them once.
func warm(ctx context.Context, b backend, sched *schedule) error {
	for _, name := range loadCorpora {
		for _, offers := range sched.pools[name] {
			if _, err := b.evaluate(ctx, name, offers); err != nil {
				return fmt.Errorf("warm %s: %w", name, err)
			}
		}
	}
	if !sched.solves {
		return nil
	}
	for _, name := range []string{pure, mixed} {
		for _, alg := range loopAlgorithms {
			if _, err := b.solve(ctx, name, alg); err != nil {
				return fmt.Errorf("warm %s/%s: %w", name, alg, err)
			}
		}
	}
	return nil
}

func (p *pass) note(format string, args ...any) {
	if len(p.notes) < 8 {
		p.notes = append(p.notes, fmt.Sprintf(format, args...))
	}
}

// fillLayers computes the per-layer metrics of a traced pass. Set-up layers
// come from the last set-up and server layers from the closed-loop slices
// (loop sums the server counters each slice gained); every other layer
// covers the whole measured window, whose ends scrapes holds.
func (p *pass) fillLayers(tr *tracer, ms0, ms1 *runtime.MemStats, scrapes [2]map[string]float64, loop, wire0, wire1 map[string]float64, loopHTTP [2]int64, clientS float64) {
	L := p.layers
	for _, d := range perLayer {
		L[d.name] = 0
	}
	L["dataset.generate_s"] = p.genTime.Seconds()
	L["config.index_s"] = p.indexTime.Seconds()

	L["wtp.union.calls"] = float64(tr.union.calls.Load())
	L["wtp.union.s"] = tr.union.seconds()
	L["wtp.union.entries"] = float64(tr.unionEntries.Load())
	L["wtp.bundle_vector.calls"] = float64(tr.vector.calls.Load())
	L["wtp.bundle_vector.s"] = tr.vector.seconds()

	st := tr.spans
	L["config.price_candidates.calls"] = float64(st.candCalls)
	L["config.price_candidates.pairs"] = float64(st.pairs)
	L["config.price_candidates.s"] = st.candS + st.fimCandS
	if st.candCalls > 0 {
		L["config.price_candidates.self_s"] = st.candS + st.fimCandS - st.unionS
	}
	if st.solveS > 0 {
		L["config.solve.self_s"] = st.solveS - st.candS
	}
	if st.fimS > 0 {
		L["config.freqitemset.self_s"] = st.fimS - st.fimExecS
	}
	L["config.iterations"] = float64(st.iterations)
	if st.pairs > 0 {
		L["config.merge_yield"] = float64(st.merges) / float64(st.pairs)
	}

	if s0, s1 := scrapes[0], scrapes[1]; s1 != nil {
		d := func(key string) float64 { return loop[key] }
		stage := func(name string) float64 { return stageSum(loop, name) }
		children := 0.0
		for _, c := range []string{"queue", "batch", "solve", "evaluate", "mutate", "persist", "index"} {
			children += stage(c)
		}
		L["server.request.self_s"] = stage("request") - children
		if n := loopHTTP[0]; n > 0 {
			L["server.resp_bytes_per_req"] = float64(loopHTTP[1]) / float64(n)
		}
		hits, misses := d("bundled_cache_hits_total"), d("bundled_cache_misses_total")
		if hits+misses > 0 {
			L["server.cache.hit_ratio"] = hits / (hits + misses)
		}
		L["server.queue.s"] = stage("queue")
		L["server.batch.s"] = stage("batch")
		L["server.batcher.coalesced"] = d("bundled_coalesced_requests_total")
		// Evaluates run inside the batcher, whose spans do not reach the
		// request trace, so the engine stages are the solve sets' solves.
		L["server.engine.s"] = stageSum(s1, "solve") + stageSum(s1, "evaluate") - stageSum(s0, "solve") - stageSum(s0, "evaluate")
		L["server.mutate.s"] = stage("mutate")
		L["server.persist.s"] = stage("persist")
		L["server.persist.calls"] = d(`bundled_stage_seconds_count{stage="persist"}`)
		L["server.index.s"] = stageSum(s0, "index")
		L["config.index_s"] = L["server.index.s"]
		L["server.shed"] = d("bundled_shed_requests_total")
		L["client.overhead_s"] = clientS - stage("request")
		L["codec.upload_bytes"] = float64(tr.setupUploadBytes)
		L["codec.delta_bytes"] = float64(tr.deltaBytes.Load())
	}

	if wire1 != nil {
		total := 0.0
		for _, op := range rpcOps {
			L["cluster.rpc.calls."+op] = float64(tr.rpc[op].calls.Load())
			total += tr.rpc[op].seconds()
		}
		L["cluster.rpc.s"] = total
		L["cluster.rpc_per_solve"] = p.props["rpc_per_solve"]
		L["cluster.bytes_per_solve"] = p.props["bytes_per_solve"]
		L["cluster.rpc_per_read"] = p.props["rpc_per_op"]
		L["cluster.bytes_per_read"] = p.props["bytes_per_op"]
		L["cluster.feed.s"] = tr.setupFeedS
		L["cluster.feed_bytes"] = wire0["feed"]
		L["cluster.retries"] = wire1["retries"] - wire0["retries"]
		L["cluster.local_fallbacks"] = wire1["fallbacks"] - wire0["fallbacks"]
	}

	L["runtime.alloc_mb"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
	L["runtime.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
	L["runtime.gc_pause_s"] = time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs).Seconds()
}

// endToEndValues computes every end-to-end metric of a pass, with the sample
// count behind each.
func (p *pass) endToEndValues() (map[string]float64, map[string]string) {
	v := map[string]float64{}
	n := map[string]string{}
	latency := func(name50, name95 string, xs []float64) {
		q := tailPercentile(len(xs), 95)
		v[name50], n[name50] = median(xs), fmt.Sprintf("median of n=%d", len(xs))
		v[name95], n[name95] = percentile(xs, q), fmt.Sprintf("p%.4g of n=%d", q, len(xs))
	}
	v["setup_s"], n["setup_s"] = median(p.setups), fmt.Sprintf("median of n=%d", len(p.setups))
	v["solve_pure_s"], n["solve_pure_s"] = median(p.pure), fmt.Sprintf("median of n=%d rounds", len(p.pure))
	v["solve_mixed_s"], n["solve_mixed_s"] = median(p.mixed), fmt.Sprintf("median of n=%d rounds", len(p.mixed))
	v["solve_fim_s"], n["solve_fim_s"] = median(p.fim), fmt.Sprintf("median of n=%d rounds", len(p.fim))
	ops := len(p.reads) + len(p.writes)
	v["req_per_s"] = median(p.rates)
	n["req_per_s"] = fmt.Sprintf("median of n=%d slices, %d ops in %.3fs", len(p.rates), ops, p.loadSeconds)
	latency("read_p50_ms", "read_p95_ms", p.reads)
	latency("write_p50_ms", "write_p95_ms", p.writes)
	v["peak_rss_mb"], n["peak_rss_mb"] = median(p.rss), fmt.Sprintf("median of n=%d rounds' highest resident set, sampled every %v", len(p.rss), rssEvery)
	return v, n
}

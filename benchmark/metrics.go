package main

import (
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// metricDef is one end-to-end metric as BENCHMARK.json lists it: bound is the
// share of the parent's median by which it may worsen before a change counts
// as a regression.
type metricDef struct {
	name, unit, better string
	bound              float64
}

// endToEnd are the metrics a user of the system sees. Every workload reports
// all of them; the workload decides which stack they run through. Tails are
// p95, not p99: on a shared two-core VM the p99 of sub-millisecond ops
// tracks the hypervisor's steal time, and moved by up to 60% (quartile
// spread over median) between runs of the same code.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"solve_pure_s", "s", "lower", 0.25},
	{"solve_mixed_s", "s", "lower", 0.25},
	{"solve_fim_s", "s", "lower", 0.25},
	{"req_per_s", "1/s", "higher", 0.25},
	{"read_p50_ms", "ms", "lower", 0.25},
	{"read_p95_ms", "ms", "lower", 0.25},
	{"write_p50_ms", "ms", "lower", 0.25},
	{"write_p95_ms", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.2},
}

// layerDef is one per-layer metric of the traced run, with the end-to-end
// metric and workload it should move.
type layerDef struct {
	name, unit, better, moves string
}

// perLayer lists the traced run's metrics. Each is reported on every
// workload; a layer the workload does not exercise reads 0.
var perLayer = func() []layerDef {
	defs := []layerDef{
		{"dataset.generate_s", "s", "lower", "setup_s on solve"},
		{"config.index_s", "s", "lower", "setup_s on every workload"},
		{"wtp.union.calls", "count", "lower", "solve_pure_s on solve"},
		{"wtp.union.s", "s", "lower", "solve_pure_s on solve"},
		{"wtp.union.entries", "count", "lower", "solve_pure_s on solve"},
		{"wtp.bundle_vector.calls", "count", "lower", "solve_fim_s and setup_s on solve"},
		{"wtp.bundle_vector.s", "s", "lower", "solve_fim_s and setup_s on solve"},
		{"config.price_candidates.calls", "count", "lower", "solve_mixed_s and solve_pure_s on solve"},
		{"config.price_candidates.pairs", "count", "lower", "solve_mixed_s and solve_pure_s on solve"},
		{"config.price_candidates.s", "s", "lower", "solve_mixed_s and solve_pure_s on solve"},
		{"config.price_candidates.self_s", "s", "lower", "solve_mixed_s on solve, with fleet flat"},
		{"config.solve.self_s", "s", "lower", "solve_pure_s and solve_mixed_s on solve"},
		{"config.freqitemset.self_s", "s", "lower", "solve_fim_s on solve"},
		{"config.iterations", "count", "lower", "solve_pure_s and solve_mixed_s on solve"},
		{"config.merge_yield", "ratio", "higher", "solve_pure_s and solve_mixed_s on solve"},
		{"server.request.self_s", "s", "lower", "read_p50_ms and req_per_s on serve"},
		{"server.resp_bytes_per_req", "bytes", "lower", "read_p50_ms and req_per_s on serve"},
		{"server.cache.hit_ratio", "ratio", "higher", "read_p50_ms on serve"},
		{"server.queue.s", "s", "lower", "read_p95_ms on serve"},
		{"server.batch.s", "s", "lower", "read_p95_ms on serve (evaluate engine time runs inside it)"},
		{"server.batcher.coalesced", "count", "higher", "read_p95_ms on serve"},
		{"server.engine.s", "s", "lower", "solve_pure_s and solve_mixed_s on serve"},
		{"server.mutate.s", "s", "lower", "write_p50_ms on serve"},
		{"server.persist.s", "s", "lower", "write_p95_ms on serve"},
		{"server.persist.calls", "count", "lower", "write_p95_ms on serve"},
		{"server.index.s", "s", "lower", "setup_s on serve"},
		{"server.shed", "count", "lower", "failed on serve"},
		{"client.overhead_s", "s", "lower", "req_per_s on serve"},
		{"codec.upload_bytes", "bytes", "lower", "setup_s on serve"},
		{"codec.delta_bytes", "bytes", "lower", "write_p50_ms on serve"},
	}
	// The cluster layers come from the traced fleet pass the solve
	// workload's traced run adds; the fleet metrics they move are printed by
	// --workload fleet but not bounded in BENCHMARK.json.
	for _, op := range rpcOps {
		defs = append(defs, layerDef{"cluster.rpc.calls." + op, "count", "lower", "solve_pure_s on fleet, with solve flat"})
	}
	defs = append(defs,
		layerDef{"cluster.rpc.s", "s", "lower", "solve_pure_s on fleet, with solve flat"},
		layerDef{"cluster.rpc_per_solve", "count", "lower", "solve_pure_s on fleet, with solve flat"},
		layerDef{"cluster.bytes_per_solve", "bytes", "lower", "solve_pure_s on fleet, with solve flat"},
		layerDef{"cluster.rpc_per_read", "count", "lower", "read_p50_ms and req_per_s on fleet"},
		layerDef{"cluster.bytes_per_read", "bytes", "lower", "read_p50_ms and req_per_s on fleet"},
		layerDef{"cluster.feed.s", "s", "lower", "setup_s on fleet"},
		layerDef{"cluster.feed_bytes", "bytes", "lower", "setup_s on fleet"},
		layerDef{"cluster.retries", "count", "lower", "failed on fleet"},
		layerDef{"cluster.local_fallbacks", "count", "lower", "failed on fleet"},
		layerDef{"runtime.alloc_mb", "MB", "lower", "peak_rss_mb and every latency, on each workload"},
		layerDef{"runtime.gc_cycles", "count", "lower", "peak_rss_mb and every latency, on each workload"},
		layerDef{"runtime.gc_pause_s", "s", "lower", "peak_rss_mb and every latency, on each workload"},
	)
	// peak_rss_mb has no overhead line: the traced pass runs after the
	// untraced one in the same process, whose heap the runtime may still
	// hold, so the ratio would lean above zero.
	for _, m := range endToEnd {
		if m.name != "peak_rss_mb" {
			defs = append(defs, layerDef{"overhead." + m.name, "ratio", "lower", "nothing: traced/untraced - 1 for " + m.name})
		}
	}
	return defs
}()

// median of xs (0 for none).
func median(xs []float64) float64 { return percentile(xs, 50) }

// percentile is the nearest-rank p-th percentile of xs (0 for none).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// tailPercentile is the highest percentile, capped at want, that has at
// least ten of n samples beyond it: 100·(1 − 10/n). Fewer than eleven
// samples support no tail, and the median is reported instead.
func tailPercentile(n int, want float64) float64 {
	if n <= 10 {
		return 50
	}
	p := 100 * (1 - 10/float64(n))
	if p > want {
		p = want
	}
	if p < 50 {
		p = 50
	}
	return p
}

// rssSampler records the highest resident set it sees, reading it every
// rssEvery until stopped; take returns the highest since the last take.
type rssSampler struct {
	mu   sync.Mutex
	peak float64
	quit chan struct{}
	done chan struct{}
}

const rssEvery = 50 * time.Millisecond

func sampleRSS() *rssSampler {
	s := &rssSampler{peak: residentMB(), quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				s.observe(residentMB())
			case <-s.quit:
				return
			}
		}
	}()
	return s
}

func (s *rssSampler) observe(mb float64) {
	s.mu.Lock()
	s.peak = max(s.peak, mb)
	s.mu.Unlock()
}

// take returns the highest resident set in MB since the previous take, and
// starts the next interval at the current one.
func (s *rssSampler) take() float64 {
	now := residentMB()
	s.mu.Lock()
	defer s.mu.Unlock()
	peak := max(s.peak, now)
	s.peak = now
	return peak
}

// stop ends the sampling and waits for the sampler to exit.
func (s *rssSampler) stop() {
	close(s.quit)
	<-s.done
}

// residentMB is the process's current resident set in MB.
func residentMB() float64 {
	buf, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(buf))
	if len(f) < 2 {
		return 0
	}
	pages, _ := strconv.ParseFloat(f[1], 64)
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

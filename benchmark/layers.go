package main

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"bundling"
	"bundling/internal/cluster"
	"bundling/internal/obs"
	"bundling/internal/wtp"
)

// The traced run measures layers from outside the program: it wraps the
// public seams each layer exposes — the StripeExecutor a Solver computes its
// vectors on, the cluster.Transport a coordinator calls its workers through,
// the http.RoundTripper under the client — and reads the spans and counters
// the program already records. None of these wrappers exist in an untraced
// run.

// tally is a call count and the wall time spent in the calls.
type tally struct{ calls, ns atomic.Int64 }

func (t *tally) since(start time.Time) {
	t.calls.Add(1)
	t.ns.Add(int64(time.Since(start)))
}

func (t *tally) seconds() float64 { return time.Duration(t.ns.Load()).Seconds() }

// rpcOps are the worker RPCs a coordinator issues, in report order.
var rpcOps = []string{"assign", "delta", "drop", "vector", "union", "stats", "hist", "health"}

// tracer holds the traced run's seams and what they counted.
type tracer struct {
	union, vector tally        // wtp: executor reductions
	unionEntries  atomic.Int64 // consumer entries produced by unions
	rpc           map[string]*tally
	requests      atomic.Int64 // client /v1 requests
	respBytes     atomic.Int64
	uploadBytes   atomic.Int64
	deltaBytes    atomic.Int64
	scrape        func(ctx context.Context) (string, error) // serve: GET /metrics

	solveSpans bool // library: record each timed solve's spans
	spans      spanTotals

	// What set-up alone sent, marked when the measured window opens.
	setupUploadBytes int64
	setupFeedS       float64
}

// markSetup records the set-up's share of the counters that later install
// rounds keep adding to.
func (t *tracer) markSetup() {
	if t != nil {
		t.setupUploadBytes = t.uploadBytes.Load()
		t.setupFeedS = t.rpc["assign"].seconds()
	}
}

func newTracer() *tracer {
	t := &tracer{rpc: map[string]*tally{}}
	for _, op := range rpcOps {
		t.rpc[op] = &tally{}
	}
	return t
}

// --- wtp: a counting StripeExecutor around the matrix's shard -----------------

type countingExec struct {
	w  *bundling.Matrix
	sh *wtp.Shard
	t  *tracer
}

func (t *tracer) executor(w *bundling.Matrix, stripeSize int) countingExec {
	t.solveSpans = true
	return countingExec{w: w, sh: w.Shard(stripeSize), t: t}
}

// patched is the counting executor over the matrix and shard a delta makes,
// patched the way Solver.ApplyDelta patches its own.
func (e countingExec) patched(cells []bundling.DeltaCell) (countingExec, error) {
	w, err := e.w.WithDelta(cells)
	if err != nil {
		return e, err
	}
	sh, err := e.sh.ApplyDelta(w, cells)
	if err != nil {
		return e, err
	}
	return countingExec{w: w, sh: sh, t: e.t}, nil
}

func (e countingExec) BundleVector(_ context.Context, items []int, theta float64, dstIDs []int, dstVals []float64) ([]int, []float64) {
	start := time.Now()
	ids, vals := e.sh.BundleVector(items, theta, dstIDs, dstVals)
	e.t.vector.since(start)
	return ids, vals
}

func (e countingExec) UnionVectors(_ context.Context, aIDs []int, aVals []float64, sa float64, bIDs []int, bVals []float64, sb float64, dstIDs []int, dstVals []float64) ([]int, []float64) {
	start := time.Now()
	ids, vals := e.sh.UnionVectors(aIDs, aVals, sa, bIDs, bVals, sb, dstIDs, dstVals)
	e.t.union.since(start)
	e.t.unionEntries.Add(int64(len(ids)))
	return ids, vals
}

// --- cluster: a counting Transport around each worker -------------------------

type countingTransport struct {
	t  cluster.Transport
	tr *tracer
}

func (t *tracer) transport(inner cluster.Transport) cluster.Transport {
	return &countingTransport{t: inner, tr: t}
}

func (c *countingTransport) Assign(ctx context.Context, corpus string, req *cluster.AssignRequest) error {
	defer c.tr.rpc["assign"].since(time.Now())
	return c.t.Assign(ctx, corpus, req)
}

// Delta keeps the wrapped transport's span-delta support visible, so tracing
// does not turn delta feeds into full feeds.
func (c *countingTransport) Delta(ctx context.Context, corpus string, req cluster.DeltaRequest) error {
	dt, ok := c.t.(cluster.DeltaTransport)
	if !ok {
		return errors.New("delta feeds unsupported")
	}
	defer c.tr.rpc["delta"].since(time.Now())
	return dt.Delta(ctx, corpus, req)
}

func (c *countingTransport) Drop(ctx context.Context, corpus string) error {
	defer c.tr.rpc["drop"].since(time.Now())
	return c.t.Drop(ctx, corpus)
}

func (c *countingTransport) Vector(ctx context.Context, corpus string, req cluster.VectorRequest) (cluster.VectorResponse, error) {
	defer c.tr.rpc["vector"].since(time.Now())
	return c.t.Vector(ctx, corpus, req)
}

func (c *countingTransport) Union(ctx context.Context, corpus string, req cluster.UnionRequest) (cluster.VectorResponse, error) {
	defer c.tr.rpc["union"].since(time.Now())
	return c.t.Union(ctx, corpus, req)
}

func (c *countingTransport) Stats(ctx context.Context, corpus string, req cluster.StatsRequest) (cluster.StatsResponse, error) {
	defer c.tr.rpc["stats"].since(time.Now())
	return c.t.Stats(ctx, corpus, req)
}

func (c *countingTransport) Hist(ctx context.Context, corpus string, req cluster.HistRequest) (cluster.HistResponse, error) {
	defer c.tr.rpc["hist"].since(time.Now())
	return c.t.Hist(ctx, corpus, req)
}

func (c *countingTransport) Health(ctx context.Context) (cluster.WorkerHealth, error) {
	defer c.tr.rpc["health"].since(time.Now())
	return c.t.Health(ctx)
}

func (c *countingTransport) Addr() string { return c.t.Addr() }

// --- client: a counting RoundTripper ------------------------------------------

type countingRT struct {
	base http.RoundTripper
	t    *tracer
}

func (t *tracer) roundTripper(base http.RoundTripper) http.RoundTripper {
	return &countingRT{base: base, t: t}
}

func (rt *countingRT) RoundTrip(req *http.Request) (*http.Response, error) {
	if !strings.HasPrefix(req.URL.Path, "/v1/") {
		return rt.base.RoundTrip(req)
	}
	rt.t.requests.Add(1)
	switch req.Method {
	case http.MethodPost:
		if req.URL.Path == "/v1/corpora" {
			rt.t.uploadBytes.Add(req.ContentLength)
		}
	case http.MethodPatch:
		rt.t.deltaBytes.Add(req.ContentLength)
	}
	resp, err := rt.base.RoundTrip(req)
	if err == nil {
		resp.Body = &countingBody{ReadCloser: resp.Body, n: &rt.t.respBytes}
	}
	return resp, err
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

// --- config: spans of the library's own solve tracing -------------------------

// spanTotals sums the solve and price_candidates spans of traced solves,
// split by whether the solve was freqitemset.
type spanTotals struct {
	solveS, fimS     float64 // solve span time
	candS, fimCandS  float64 // price_candidates span time
	candCalls, pairs int64
	iterations       int64
	merges           int64
	fimExecS         float64 // executor time inside freqitemset solves
	unionS           float64 // union time inside traced solves
}

// tracedSolve runs solve under a fresh obs.Trace when the backend records
// spans, and folds the finished trace into the totals. items is the corpus
// width, from which accepted merges follow as items − top-level offers.
func (t *tracer) tracedSolve(ctx context.Context, fim bool, items int, solve func(ctx context.Context) (outcome, error)) (outcome, error) {
	if t == nil || !t.solveSpans {
		return solve(ctx)
	}
	trace := obs.NewTrace("", 1<<20)
	union0, vector0 := t.union.seconds(), t.vector.seconds()
	out, err := solve(obs.ContextWithTrace(ctx, trace))
	if err != nil {
		return out, err
	}
	unionS := t.union.seconds() - union0
	execS := unionS + t.vector.seconds() - vector0
	st := &t.spans
	for _, sp := range trace.Finish().Spans {
		sec := sp.DurMS / 1000
		switch sp.Name {
		case "solve":
			if fim {
				st.fimS += sec
			} else {
				st.solveS += sec
			}
		case "price_candidates":
			st.candCalls++
			if fim {
				st.fimCandS += sec
			} else {
				st.candS += sec
			}
			for _, tag := range sp.Tags {
				if tag.Key == "pairs" {
					n, _ := strconv.ParseInt(tag.Value, 10, 64)
					st.pairs += n
				}
			}
		}
	}
	st.iterations += int64(out.iterations)
	if m := items - out.bundles; m > 0 {
		st.merges += int64(m)
	}
	st.unionS += unionS
	if fim {
		st.fimExecS += execS
	}
	return out, nil
}

// --- server: /metrics deltas --------------------------------------------------

// scrapeMetrics reads the server's Prometheus exposition into a map keyed by
// series, e.g. `bundled_stage_seconds_sum{stage="request"}`.
func (t *tracer) scrapeMetrics() (map[string]float64, error) {
	if t == nil || t.scrape == nil {
		return nil, nil
	}
	text, err := t.scrape(context.Background())
	if err != nil {
		return nil, err
	}
	return parseMetrics(text), nil
}

func parseMetrics(text string) map[string]float64 {
	out := map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

func stageSum(m map[string]float64, stage string) float64 {
	return m[`bundled_stage_seconds_sum{stage="`+stage+`"}`]
}

package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"

	"bundling"
)

// library opens the library backend as a workload does.
func library(tr *tracer, _ bool) (backend, error) { return openLibrary(tr) }

// tiny is a workload shape small enough for unit tests.
func tiny(open func(tr *tracer, persist bool) (backend, error), remote bool) *workload {
	return &workload{name: "tiny", set: shape{120, 30}, fim: shape{120, 30}, load: shape{120, 30},
		fimPer: 2, stripes: 4, fanout: 2, remote: remote, resultCache: remote, open: open}
}

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{{1000, 99}, {5000, 99}, {100, 90}, {400, 97.5}, {20, 50}, {10, 50}, {0, 50}} {
		if got := tailPercentile(tc.n, 99); got != tc.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", tc.n, got, tc.want)
		}
	}
	// At the reported percentile at least ten samples lie beyond the value,
	// and at the next sample up fewer do.
	for _, n := range []int{20, 57, 100, 400, 999, 1000, 1001} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		v := percentile(xs, tailPercentile(n, 100))
		if beyond := n - int(v); beyond < 10 {
			t.Errorf("n=%d: %d samples beyond the tail, want at least 10", n, beyond)
		} else if beyond > 10 {
			t.Errorf("n=%d: %d samples beyond the tail, a higher percentile has 10", n, beyond)
		}
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	wl := tiny(library, false)
	a, err := generateCorpora(wl, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := generateCorpora(wl, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range corpusNames {
		wa, wb := a.get(name).w, b.get(name).w
		if wa.Consumers() != wb.Consumers() || wa.Items() != wb.Items() || wa.Entries() != wb.Entries() {
			t.Fatalf("%s: shapes differ", name)
		}
		for i := 0; i < wa.Items(); i++ {
			if !reflect.DeepEqual(wa.Postings(i), wb.Postings(i)) {
				t.Fatalf("%s: item %d postings differ", name, i)
			}
		}
	}
	sa, sb := newSchedule(7, a.get(live).w, true), newSchedule(7, b.get(live).w, true)
	other := newSchedule(8, a.get(live).w, true)
	differs := false
	for i := 0; i < 5000; i++ {
		if !reflect.DeepEqual(sa.op(i), sb.op(i)) {
			t.Fatalf("op %d differs for the same seed", i)
		}
		differs = differs || !reflect.DeepEqual(sa.op(i), other.op(i))
	}
	if !differs {
		t.Fatal("seeds 7 and 8 gave the same schedule")
	}
	ra, _, err := roundMatrices(wl, 7, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	rb, _, err := roundMatrices(wl, 7, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ra.Items(); i++ {
		if !reflect.DeepEqual(ra.Postings(i), rb.Postings(i)) {
			t.Fatalf("round matrix item %d postings differ for the same seed", i)
		}
	}
}

// TestScheduleMix checks the closed loop's traffic: six in ten requests read
// the pool, two read a fresh lineup, one solves (a pooled read where no
// result cache answers solves) and one writes; pooled reads of one burst
// share their offer family, and each block of requests reads one corpus.
func TestScheduleMix(t *testing.T) {
	c, err := generateCorpora(tiny(library, false), 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, solves := range []bool{true, false} {
		s := newSchedule(7, c.get(live).w, solves)
		counts := map[opKind]int{}
		for i := 0; i < 1200; i++ {
			o := s.op(i)
			counts[o.kind]++
			switch o.kind {
			case readPooled:
				if first := s.op(i - i%burstOps); first.kind == readPooled && !reflect.DeepEqual(o.offers, first.offers) {
					t.Fatalf("op %d: pooled reads of one burst read different families", i)
				}
				fallthrough
			case readFresh:
				if want := loadCorpora[(i/blockOps)%len(loadCorpora)]; o.corpus != want {
					t.Fatalf("op %d reads %s, its block reads %s", i, o.corpus, want)
				}
			case readSolve:
				if o.corpus == live || o.alg == "" {
					t.Fatalf("op %d: solve %q on %s", i, o.alg, o.corpus)
				}
			}
		}
		want := map[opKind]int{readPooled: 720, readFresh: 240, readSolve: 120, write: 120}
		if !solves {
			want[readPooled], want[readSolve] = 840, 0
		}
		for _, k := range []opKind{readPooled, readFresh, readSolve, write} {
			if counts[k] != want[k] {
				t.Errorf("solves=%v: %d ops of kind %d, want %d", solves, counts[k], k, want[k])
			}
		}
	}
}

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the workload and metric tables")

// spec renders BENCHMARK.json from the workload and metric tables.
func spec() ([]byte, error) {
	type workloadDoc struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type metricDoc struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	doc := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDoc `json:"workloads"`
		EndToEnd   []metricDoc   `json:"end_to_end"`
		PerLayer   []metricDoc   `json:"per_layer"`
	}{Command: []string{"bash", "benchmark/run.sh"}, Paths: []string{"benchmark"}, RunSeconds: runSeconds}
	for _, wl := range workloads {
		if !wl.unlisted {
			doc.Workloads = append(doc.Workloads, workloadDoc{wl.name, wl.why})
		}
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, metricDoc{m.name, m.unit, m.better, &m.bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, metricDoc{d.name, d.unit, d.better, nil})
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	err := enc.Encode(doc)
	return buf.Bytes(), err
}

// TestSpec checks that BENCHMARK.json lists exactly the workloads and
// metrics this package reports; go test -run TestSpec -update rewrites it.
func TestSpec(t *testing.T) {
	want, err := spec()
	if err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile("../BENCHMARK.json", want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("BENCHMARK.json is out of date; run go test -run TestSpec -update")
	}
}

func TestMetricNames(t *testing.T) {
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(name, unit, better string) {
		if !nameRE.MatchString(name) || !unitRE.MatchString(unit) || (better != "lower" && better != "higher") {
			t.Errorf("bad metric %q unit %q better %q", name, unit, better)
		}
		if seen[name] {
			t.Errorf("metric %q listed twice", name)
		}
		seen[name] = true
	}
	for _, m := range endToEnd {
		check(m.name, m.unit, m.better)
	}
	for _, d := range perLayer {
		check(d.name, d.unit, d.better)
	}

}

// TestGatesCatchPerturbedResults checks that each correctness gate fails on
// a result that is off by more than the 1e-9 tolerance.
func TestGatesCatchPerturbedResults(t *testing.T) {
	c, err := generateCorpora(tiny(library, false), 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := openLibrary(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer b.close()
	for _, name := range corpusNames {
		if err := b.install(name, c.get(name)); err != nil {
			t.Fatal(err)
		}
	}
	ctx := t.Context()
	var solves []solveRec
	for _, corpus := range []string{setPure, setMixed} {
		for _, alg := range setAlgorithms {
			out, err := b.solve(ctx, corpus, alg)
			if err != nil {
				t.Fatal(err)
			}
			solves = append(solves, solveRec{corpus: c.get(corpus), alg: alg, out: out})
		}
	}
	offers := [][]int{{0, 1}, {2}}
	read, err := b.evaluate(ctx, pure, offers)
	if err != nil {
		t.Fatal(err)
	}
	cells := []bundling.DeltaCell{{Consumer: 1, Item: 2, Value: 9.5}}
	gen, err := b.patch(ctx, live, cells)
	if err != nil {
		t.Fatal(err)
	}
	liveRead, err := b.evaluate(ctx, live, offers)
	if err != nil {
		t.Fatal(err)
	}
	solveRead, err := b.solve(ctx, mixed, "optimal2")
	if err != nil {
		t.Fatal(err)
	}
	reads := []readRec{{corpus: pure, offers: offers, out: read}, {corpus: live, offers: offers, out: liveRead},
		{corpus: mixed, alg: "optimal2", out: solveRead}}
	writes := []writeRec{{gen: gen, cells: cells}}

	gate := func(solves []solveRec, reads []readRec, writes []writeRec, remote bool) int {
		k, err := newChecker(c)
		if err != nil {
			t.Fatal(err)
		}
		k.checkSolves(solves, remote)
		k.checkLoad(append([]readRec(nil), reads...), append([]writeRec(nil), writes...), 0)
		return k.failed
	}
	if n := gate(solves, reads, writes, true); n != 0 {
		t.Fatalf("unperturbed results: %d failures", n)
	}

	perturb := func(o outcome, by float64) outcome {
		o.revenue *= 1 + by
		return o
	}
	for i := range solves {
		bad := append([]solveRec(nil), solves...)
		bad[i].out = perturb(bad[i].out, 1e-6)
		if n := gate(bad, reads, writes, false); n != 1 {
			t.Errorf("solve %s/%s perturbed by 1e-6: %d failures, want 1", bad[i].corpus.name, bad[i].alg, n)
		}
	}
	// A solve whose revenue is exactly what Evaluate reports for its offers,
	// but differs from the local solve, fails only the remote gate:
	// components' result reported as greedy's.
	comp, greedy := solves[0], solves[3]
	if comp.alg != "components" || greedy.alg != "greedy" || same(comp.out.revenue, greedy.out.revenue) {
		t.Fatalf("want distinct components and greedy revenues, got %+v and %+v", comp, greedy)
	}
	bad := append([]solveRec(nil), solves...)
	bad[3].out = comp.out
	if n := gate(bad, reads, writes, false); n != 0 {
		t.Errorf("a self-consistent answer failed %d local gates, want 0", n)
	}
	if n := gate(bad, reads, writes, true); n != 1 {
		t.Errorf("remote greedy answered with components' result: %d failures, want 1", n)
	}
	for i := range reads {
		bad := append([]readRec(nil), reads...)
		bad[i].out = perturb(bad[i].out, -1e-6)
		if n := gate(solves, bad, writes, false); n != 1 {
			t.Errorf("read %d on %s perturbed by 1e-6: %d failures, want 1", i, bad[i].corpus, n)
		}
	}
	gap := []writeRec{{gen: gen + 1, cells: cells}}
	if n := gate(solves, reads, gap, false); n == 0 {
		t.Error("a write with a generation gap passed")
	}
}

// TestPassesAreCorrect runs a short traced pass on each backend: every gate
// holds and the traced seams see their layer's work.
func TestPassesAreCorrect(t *testing.T) {
	storeRoot = t.TempDir()
	for _, tc := range []struct {
		name  string
		wl    *workload
		layer string
	}{
		{"library", tiny(library, false), "wtp.union.calls"},
		{"serve", tiny(openServe, true), "server.persist.calls"},
		{"fleet", tiny(func(tr *tracer, _ bool) (backend, error) { return openFleet(tr, 2) }, true), "cluster.rpc.calls.union"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, err := runPass(tc.wl, 5, 600*time.Millisecond, 1, true, true)
			if err != nil {
				t.Fatal(err)
			}
			if p.failed != 0 || p.attempted == 0 {
				t.Fatalf("failed %d of %d: %v", p.failed, p.attempted, p.notes)
			}
			if p.layers[tc.layer] <= 0 {
				t.Errorf("%s = %g, want > 0", tc.layer, p.layers[tc.layer])
			}
			v, _ := p.endToEndValues()
			for _, m := range endToEnd {
				if !(v[m.name] > 0) {
					t.Errorf("%s = %g, want > 0", m.name, v[m.name])
				}
			}
		})
	}
}

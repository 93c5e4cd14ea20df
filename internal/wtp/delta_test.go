package wtp

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// randDelta draws a batch of mutations against an m×n matrix: adds, value
// updates, deletes, duplicate coordinates (last wins), and no-op updates that
// rewrite the current value.
func randDelta(rng *rand.Rand, w *Matrix, count int) []Cell {
	cells := make([]Cell, 0, count)
	for len(cells) < count {
		u, i := rng.Intn(w.Consumers()), rng.Intn(w.Items())
		switch rng.Intn(5) {
		case 0: // delete (possibly of an absent cell)
			cells = append(cells, Cell{Consumer: u, Item: i, Delete: true})
		case 1: // no-op update: rewrite whatever is there now
			cells = append(cells, Cell{Consumer: u, Item: i, Value: w.At(u, i)})
		default: // add or update with a fresh value
			cells = append(cells, Cell{Consumer: u, Item: i, Value: math.Round(rng.Float64()*1000) / 10})
		}
		// Occasionally duplicate the previous coordinate with a new value so
		// last-wins collapsing is exercised.
		if len(cells) < count && rng.Intn(4) == 0 {
			prev := cells[len(cells)-1]
			cells = append(cells, Cell{Consumer: prev.Consumer, Item: prev.Item, Value: math.Round(rng.Float64()*1000) / 10})
		}
	}
	return cells
}

// applyRebuild replays the delta onto a from-scratch copy of w via Set/Delete,
// the reference semantics WithDelta must match.
func applyRebuild(t *testing.T, w *Matrix, cells []Cell) *Matrix {
	t.Helper()
	nw := MustNew(w.Consumers(), w.Items())
	for u := 0; u < w.Consumers(); u++ {
		for i := 0; i < w.Items(); i++ {
			if v := w.At(u, i); v != 0 {
				nw.MustSet(u, i, v)
			}
		}
	}
	for _, c := range cells {
		if c.Delete {
			if err := nw.Delete(c.Consumer, c.Item); err != nil {
				t.Fatalf("Delete(%d,%d): %v", c.Consumer, c.Item, err)
			}
		} else {
			nw.MustSet(c.Consumer, c.Item, c.Value)
		}
	}
	return nw
}

// mustEqualMatrices asserts two matrices agree cell for cell, in postings, and
// in their aggregates. Delta application is exact (values are moved, not
// recomputed), so equality is bitwise except for the float-summed aggregates.
func mustEqualMatrices(t *testing.T, got, want *Matrix) {
	t.Helper()
	if got.Consumers() != want.Consumers() || got.Items() != want.Items() {
		t.Fatalf("dimensions %d×%d, want %d×%d", got.Consumers(), got.Items(), want.Consumers(), want.Items())
	}
	for u := 0; u < want.Consumers(); u++ {
		for i := 0; i < want.Items(); i++ {
			if got.At(u, i) != want.At(u, i) {
				t.Fatalf("cell (%d,%d) = %g, want %g", u, i, got.At(u, i), want.At(u, i))
			}
		}
	}
	for i := 0; i < want.Items(); i++ {
		g, w := got.Postings(i), want.Postings(i)
		if len(g) != len(w) {
			t.Fatalf("item %d postings len %d, want %d", i, len(g), len(w))
		}
		for j := range w {
			if g[j] != w[j] {
				t.Fatalf("item %d posting %d = %+v, want %+v", i, j, g[j], w[j])
			}
		}
		if math.Abs(got.ItemTotal(i)-want.ItemTotal(i)) > 1e-9 {
			t.Fatalf("item %d total %g, want %g", i, got.ItemTotal(i), want.ItemTotal(i))
		}
	}
	if math.Abs(got.Total()-want.Total()) > 1e-9 {
		t.Fatalf("total %g, want %g", got.Total(), want.Total())
	}
	if got.Entries() != want.Entries() {
		t.Fatalf("entries %d, want %d", got.Entries(), want.Entries())
	}
}

// mustEqualShards asserts two shards produce identical stripes, segment by
// segment, so delta-patched stripes hold exactly what a rebuild holds.
func mustEqualShards(t *testing.T, got, want *Shard) {
	t.Helper()
	if got.Stripes() != want.Stripes() || got.StripeSize() != want.StripeSize() {
		t.Fatalf("shard layout %d stripes × %d, want %d × %d", got.Stripes(), got.StripeSize(), want.Stripes(), want.StripeSize())
	}
	for s := 0; s < want.Stripes(); s++ {
		mustEqualStripes(t, fmt.Sprintf("stripe %d", s), got.Stripe(s), want.Stripe(s))
	}
}

// mustEqualStripes asserts two stripes have the same bounds, entry count and
// per-item segments, entry for entry.
func mustEqualStripes(t *testing.T, label string, gs, ws *Stripe) {
	t.Helper()
	glo, ghi := gs.Bounds()
	wlo, whi := ws.Bounds()
	if glo != wlo || ghi != whi {
		t.Fatalf("%s bounds [%d,%d), want [%d,%d)", label, glo, ghi, wlo, whi)
	}
	if len(gs.segs) != len(ws.segs) {
		t.Fatalf("%s has %d item segments, want %d", label, len(gs.segs), len(ws.segs))
	}
	if gs.Entries() != ws.Entries() {
		t.Fatalf("%s entries %d, want %d", label, gs.Entries(), ws.Entries())
	}
	for i := range ws.segs {
		gIDs, gVals := gs.Item(i)
		wIDs, wVals := ws.Item(i)
		if len(gIDs) != len(wIDs) || len(gVals) != len(wIDs) {
			t.Fatalf("%s item %d segment has %d ids and %d values, want %d", label, i, len(gIDs), len(gVals), len(wIDs))
		}
		for j := range wIDs {
			if gIDs[j] != wIDs[j] || gVals[j] != wVals[j] {
				t.Fatalf("%s item %d entry %d = (%d,%g), want (%d,%g)", label, i, j, gIDs[j], gVals[j], wIDs[j], wVals[j])
			}
		}
	}
}

// TestWithDeltaMatchesRebuild drives seeded random delta sequences through
// WithDelta / Shard.ApplyDelta / SpanStore.ApplyDelta and asserts each stage
// matches a from-scratch rebuild of the mutated matrix, layout included.
func TestWithDeltaMatchesRebuild(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			m, n := 40+rng.Intn(40), 5+rng.Intn(10)
			w := MustNew(m, n)
			for k := 0; k < m*n/3; k++ {
				w.MustSet(rng.Intn(m), rng.Intn(n), math.Round(rng.Float64()*1000)/10)
			}
			stripeSize := 1 + rng.Intn(16)
			cur, sh := w, w.Shard(stripeSize)
			// Span replicas covering the whole shard in two spans.
			cut := sh.Stripes() / 2
			sp1, err := sh.Span(0, cut).Store()
			if err != nil {
				t.Fatal(err)
			}
			sp2, err := sh.Span(cut, sh.Stripes()).Store()
			if err != nil {
				t.Fatal(err)
			}
			for round := 0; round < 6; round++ {
				cells := randDelta(rng, cur, 1+rng.Intn(20))
				want := applyRebuild(t, cur, cells)
				next, err := cur.WithDelta(cells)
				if err != nil {
					t.Fatalf("round %d WithDelta: %v", round, err)
				}
				mustEqualMatrices(t, next, want)
				if next.Version() != cur.Version()+1 {
					t.Fatalf("round %d version %d, want %d", round, next.Version(), cur.Version()+1)
				}
				nsh, err := sh.ApplyDelta(next, cells)
				if err != nil {
					t.Fatalf("round %d Shard.ApplyDelta: %v", round, err)
				}
				mustEqualShards(t, nsh, next.Shard(stripeSize))
				// Patch the span replicas with their span-scoped cut of the
				// delta and compare against spans of the rebuilt shard.
				for si, sp := range []*SpanStore{sp1, sp2} {
					lo, hi := sp.Bounds()
					var cut []Cell
					for _, c := range cells {
						if c.Consumer >= lo && c.Consumer < hi {
							cut = append(cut, c)
						}
					}
					nsp, err := sp.ApplyDelta(cut, next.Version())
					if err != nil {
						t.Fatalf("round %d span %d ApplyDelta: %v", round, si, err)
					}
					s0, s1 := sp.StripeRange()
					doc := nsh.Span(s0, s1)
					wantSp, err := doc.Store()
					if err != nil {
						t.Fatal(err)
					}
					if nsp.Entries() != wantSp.Entries() {
						t.Fatalf("round %d span %d entries %d, want %d", round, si, nsp.Entries(), wantSp.Entries())
					}
					if len(nsp.stripes) != len(wantSp.stripes) {
						t.Fatalf("round %d span %d has %d stripes, want %d", round, si, len(nsp.stripes), len(wantSp.stripes))
					}
					for k := range wantSp.stripes {
						mustEqualStripes(t, fmt.Sprintf("round %d span %d stripe %d", round, si, k), &nsp.stripes[k], &wantSp.stripes[k])
					}
					if si == 0 {
						sp1 = nsp
					} else {
						sp2 = nsp
					}
				}
				cur, sh = next, nsh
			}
		})
	}
}

// TestDeltaValidation asserts a delta is rejected whole — receiver untouched —
// on any out-of-range coordinate or invalid value.
func TestDeltaValidation(t *testing.T) {
	w := MustNew(4, 3)
	w.MustSet(1, 1, 5)
	bad := [][]Cell{
		{{Consumer: -1, Item: 0, Value: 1}},
		{{Consumer: 0, Item: 3, Value: 1}},
		{{Consumer: 4, Item: 0, Value: 1}},
		{{Consumer: 0, Item: 0, Value: -1}},
		{{Consumer: 0, Item: 0, Value: math.NaN()}},
		{{Consumer: 0, Item: 0, Value: math.Inf(1)}},
		{{Consumer: 0, Item: 0, Value: 2, Delete: true}},
		{{Consumer: 0, Item: 0, Value: 1}, {Consumer: 9, Item: 0, Value: 1}},
	}
	for k, cells := range bad {
		if _, err := w.WithDelta(cells); err == nil {
			t.Fatalf("case %d: WithDelta accepted invalid delta %+v", k, cells)
		}
	}
	if w.Version() != 1 || w.At(0, 0) != 0 {
		t.Fatalf("receiver mutated by rejected delta: version %d, At(0,0)=%g", w.Version(), w.At(0, 0))
	}
	sh := w.Shard(2)
	if _, err := sh.ApplyDelta(w, []Cell{{Consumer: 9, Item: 0, Value: 1}}); err == nil {
		t.Fatal("Shard.ApplyDelta accepted out-of-range cell")
	}
	sp, err := sh.Span(0, 1).Store()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sp.ApplyDelta([]Cell{{Consumer: 3, Item: 0, Value: 1}}, 7); err == nil {
		t.Fatal("SpanStore.ApplyDelta accepted cell outside span bounds")
	}
}

// TestDeltaCopyOnWrite asserts WithDelta leaves the parent snapshot intact
// and that mutating either matrix afterwards never writes through shared
// backing arrays.
func TestDeltaCopyOnWrite(t *testing.T) {
	w := MustNew(3, 2)
	w.MustSet(0, 0, 1)
	w.MustSet(1, 0, 2)
	w.MustSet(2, 1, 3)
	nw, err := w.WithDelta([]Cell{{Consumer: 0, Item: 0, Value: 9}})
	if err != nil {
		t.Fatal(err)
	}
	if w.At(0, 0) != 1 || nw.At(0, 0) != 9 {
		t.Fatalf("parent/child cells %g/%g, want 1/9", w.At(0, 0), nw.At(0, 0))
	}
	// Mutating the child must not leak into the parent through the shared
	// untouched row (consumer 1) or posting list (item 1).
	nw.MustSet(1, 0, 7)
	nw.MustSet(2, 1, 8)
	if w.At(1, 0) != 2 || w.At(2, 1) != 3 {
		t.Fatalf("parent mutated through shared arrays: %g, %g", w.At(1, 0), w.At(2, 1))
	}
	if p := w.Postings(1); len(p) != 1 || p[0].Value != 3 {
		t.Fatalf("parent posting list mutated: %+v", p)
	}
	// And mutating the parent must not leak into the child.
	w.MustSet(1, 0, 6)
	if nw.At(1, 0) != 7 {
		t.Fatalf("child mutated through shared row: %g", nw.At(1, 0))
	}
}

// TestDeleteTombstone is the regression test for single-cell deletes: a
// deleted cell must vanish from every read path — At, postings, BundleVector,
// UnionVectors, shard and span stores — and never resurface.
func TestDeleteTombstone(t *testing.T) {
	w := MustNew(4, 3)
	w.MustSet(0, 0, 10)
	w.MustSet(1, 0, 20)
	w.MustSet(1, 1, 30)
	w.MustSet(2, 0, 40)
	v0 := w.Version()
	if err := w.Delete(1, 0); err != nil {
		t.Fatal(err)
	}
	if w.Version() != v0+1 {
		t.Fatalf("version %d after delete, want %d", w.Version(), v0+1)
	}
	if err := w.Delete(1, 0); err != nil {
		t.Fatal(err)
	}
	if w.Version() != v0+1 {
		t.Fatal("deleting an absent cell bumped the version")
	}
	if w.At(1, 0) != 0 {
		t.Fatalf("At(1,0) = %g after delete", w.At(1, 0))
	}
	for _, e := range w.Postings(0) {
		if e.Consumer == 1 {
			t.Fatalf("deleted cell still in postings: %+v", e)
		}
	}
	if w.ItemTotal(0) != 50 || w.Total() != 80 {
		t.Fatalf("aggregates %g/%g after delete, want 50/80", w.ItemTotal(0), w.Total())
	}
	ids, _ := w.BundleVector([]int{0, 1}, 0, nil, nil)
	for _, u := range ids {
		if u == 1 {
			// Consumer 1 still holds item 1, so presence is fine — but the
			// vector value must exclude the deleted item-0 cell.
			if v := w.BundleWTP(1, []int{0, 1}, 0); v != 30 {
				t.Fatalf("bundle WTP %g for consumer 1, want 30", v)
			}
		}
	}
	aIDs, aVals := w.BundleVector([]int{0}, 0, nil, nil)
	bIDs, bVals := w.BundleVector([]int{1}, 0, nil, nil)
	uIDs, uVals := UnionVectors(aIDs, aVals, 1, bIDs, bVals, 1, nil, nil)
	for k, u := range uIDs {
		if u == 1 && uVals[k] != 30 {
			t.Fatalf("union resurfaces deleted cell: consumer 1 = %g, want 30", uVals[k])
		}
	}
	// The shard and a serialized span of it must agree: consumer 1 absent
	// from item 0's segment everywhere.
	sh := w.Shard(2)
	st := sh.Stripe(0)
	sids, _ := st.Item(0)
	for _, id := range sids {
		if id == 1 {
			t.Fatal("deleted cell present in shard stripe")
		}
	}
	sp, err := sh.Span(0, sh.Stripes()).Store()
	if err != nil {
		t.Fatal(err)
	}
	spIDs, _ := sp.BundleVector([]int{0}, 0, nil, nil)
	for _, id := range spIDs {
		if id == 1 {
			t.Fatal("deleted cell present in span store")
		}
	}
}

// TestDeltaBytesIndependentOfEntries asserts a 1-cell delta copies only the
// touched item's segment: the bytes Shard.ApplyDelta and
// SpanStore.ApplyDelta allocate are the same on a sparse matrix and on a
// dense one whose touched item holds the same postings.
func TestDeltaBytesIndependentOfEntries(t *testing.T) {
	const m, n = 2048, 64
	build := func(density float64) *Matrix {
		rng := rand.New(rand.NewSource(5))
		w := MustNew(m, n)
		for u := 0; u < m; u++ {
			if u%4 == 0 {
				w.MustSet(u, 0, 1+float64(u%7))
			}
			for i := 1; i < n; i++ {
				if rng.Float64() < density {
					w.MustSet(u, i, 0.5+rng.Float64()*49.5)
				}
			}
		}
		return w
	}
	cells := []Cell{{Consumer: 8, Item: 0, Value: 3.5}}
	measure := func(w *Matrix) (shardBytes, spanBytes uint64) {
		sh := w.Shard(0)
		nw, err := w.WithDelta(cells)
		if err != nil {
			t.Fatal(err)
		}
		sp, err := sh.Span(0, 1).Store()
		if err != nil {
			t.Fatal(err)
		}
		shardBytes = bytesPerRun(50, func() {
			if _, err := sh.ApplyDelta(nw, cells); err != nil {
				t.Fatal(err)
			}
		})
		spanBytes = bytesPerRun(50, func() {
			if _, err := sp.ApplyDelta(cells, nw.Version()); err != nil {
				t.Fatal(err)
			}
		})
		return shardBytes, spanBytes
	}
	sparse, dense := build(0.01), build(0.9)
	if sparse.Entries()*20 > dense.Entries() {
		t.Fatalf("dense matrix has %d entries, sparse %d: want a 20× spread", dense.Entries(), sparse.Entries())
	}
	sShard, sSpan := measure(sparse)
	dShard, dSpan := measure(dense)
	// A stripe copy of the dense matrix would be ~700 KB; allow only noise.
	const slack = 256
	if dShard > sShard+slack {
		t.Errorf("Shard.ApplyDelta: %d bytes on %d entries, %d on %d", dShard, dense.Entries(), sShard, sparse.Entries())
	}
	if dSpan > sSpan+slack {
		t.Errorf("SpanStore.ApplyDelta: %d bytes on %d entries, %d on %d", dSpan, dense.Entries(), sSpan, sparse.Entries())
	}
}

// bytesPerRun returns the heap bytes f allocates, averaged over runs.
func bytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

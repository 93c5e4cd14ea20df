package pricing

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"bundling/internal/adoption"
)

// referencePriceMixed is the O(m·T) per-level rescan the deterministic
// sweep replaced; the fast path must reproduce it exactly.
func referencePriceMixed(p *Pricer, off MixedOffer) MixedQuote {
	if (off.Obj == Objective{}) {
		off.Obj = RevenueObjective()
	}
	var q MixedQuote
	var basePay, baseCost, baseSur float64
	for j, pay := range off.CurPay {
		basePay += pay
		baseCost += at0(off.CurCost, j)
		baseSur += at0(off.CurESurplus, j)
	}
	q.Baseline = basePay
	q.Revenue = basePay
	q.BaselineUtility = off.Obj.ProfitWeight*(basePay-baseCost) + (1-off.Obj.ProfitWeight)*baseSur
	q.Utility = q.BaselineUtility
	q.Surplus = baseSur
	if off.Hi <= off.Lo {
		return q
	}
	T := p.levels
	for t := 1; t <= T; t++ {
		pb := off.Lo + (off.Hi-off.Lo)*float64(t)/float64(T+1)
		rev, cost, sur, adopters := p.offerOutcome(off, pb)
		util := off.Obj.ProfitWeight*(rev-cost) + (1-off.Obj.ProfitWeight)*sur
		if util > q.Utility {
			q.Price, q.Revenue, q.Adopters = pb, rev, adopters
			q.Utility, q.Surplus = util, sur
			q.Feasible = true
		}
	}
	return q
}

// randomMixedOffer fabricates a plausible offer state: per-consumer bundle
// WTPs, current payments at or below WTP, and surpluses consistent with a
// prior purchase.
func randomMixedOffer(rng *rand.Rand, m int, withCosts bool) MixedOffer {
	off := MixedOffer{
		CurPay:     make([]float64, m),
		CurSurplus: make([]float64, m),
		WB:         make([]float64, m),
	}
	if withCosts {
		off.CurCost = make([]float64, m)
		off.CurESurplus = make([]float64, m)
	}
	var maxPart, sumPart float64
	for j := 0; j < m; j++ {
		wb := rng.Float64() * 40
		pay := rng.Float64() * wb
		off.WB[j] = wb
		off.CurPay[j] = pay
		if rng.Float64() < 0.7 {
			off.CurSurplus[j] = rng.Float64() * (wb - pay)
		}
		if withCosts {
			off.CurCost[j] = rng.Float64() * pay * 0.3
			off.CurESurplus[j] = off.CurSurplus[j] * 0.9
		}
		if pay > maxPart {
			maxPart = pay
		}
		sumPart += pay
	}
	off.Lo = maxPart
	off.Hi = maxPart + rng.Float64()*(sumPart-maxPart+5)
	return off
}

// TestPriceMixedStepMatchesReference cross-checks the O(m + T) counting
// sweep against the per-level rescan across random offers, including the ε
// tie window and non-default objectives.
func TestPriceMixedStepMatchesReference(t *testing.T) {
	p := Default()
	if !p.Model().Deterministic() {
		t.Fatal("default model should be deterministic")
	}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 300; trial++ {
		m := 1 + rng.Intn(50)
		withCosts := trial%3 == 0
		off := randomMixedOffer(rng, m, withCosts)
		if withCosts {
			off.BundleCost = rng.Float64() * 3
			off.Obj = Objective{ProfitWeight: 0.6, UnitCost: off.BundleCost}
		}
		got := p.PriceMixed(off)
		want := referencePriceMixed(p, off)
		if got.Feasible != want.Feasible {
			t.Fatalf("trial %d: feasible = %v, reference %v", trial, got.Feasible, want.Feasible)
		}
		check := func(name string, g, w float64) {
			if math.Abs(g-w) > 1e-9 {
				t.Fatalf("trial %d: %s = %.15g, reference %.15g", trial, name, g, w)
			}
		}
		check("price", got.Price, want.Price)
		check("revenue", got.Revenue, want.Revenue)
		check("baseline", got.Baseline, want.Baseline)
		check("adopters", got.Adopters, want.Adopters)
		check("utility", got.Utility, want.Utility)
		check("surplus", got.Surplus, want.Surplus)
	}
}

// TestPriceMixedStepTieWindow pins the ε tie-break semantics: a consumer
// whose threshold coincides with a grid price must resolve through
// ResolveSwitch identically on both paths.
func TestPriceMixedStepTieWindow(t *testing.T) {
	p := Default()
	T := float64(p.Levels())
	lo, hi := 10.0, 20.0
	// Place one consumer's switch threshold exactly on grid level 50.
	pb := lo + (hi-lo)*50/(T+1)
	surplus := 2.0
	off := MixedOffer{
		WB:         []float64{pb + surplus, 30, 12},
		CurPay:     []float64{9, 11, 8},
		CurSurplus: []float64{surplus, 1, 0.5},
		Lo:         lo,
		Hi:         hi,
	}
	got := p.PriceMixed(off)
	want := referencePriceMixed(p, off)
	if got != want {
		t.Fatalf("tie-window quote = %+v, reference %+v", got, want)
	}
}

// TestPriceMixedStepNegativeSurplus covers out-of-contract inputs an
// external caller could pass: negative current surplus, where the binding
// switch constraint becomes the bs ≥ -ε price guard rather than the
// surplus comparison.
func TestPriceMixedStepNegativeSurplus(t *testing.T) {
	p := Default()
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 100; trial++ {
		off := randomMixedOffer(rng, 1+rng.Intn(30), false)
		for j := range off.CurSurplus {
			if rng.Float64() < 0.4 {
				off.CurSurplus[j] = -rng.Float64() * 20
			}
		}
		got := p.PriceMixed(off)
		want := referencePriceMixed(p, off)
		if got.Feasible != want.Feasible || math.Abs(got.Utility-want.Utility) > 1e-9 {
			t.Fatalf("trial %d: quote = %+v, reference %+v", trial, got, want)
		}
		if !got.Feasible {
			continue
		}
		// Negative surpluses flatten the revenue curve enough that distinct
		// price levels can tie in utility to within float-reordering noise;
		// the two paths may then pick different tied optima. The contract
		// is that the fast path's chosen price is optimal per the reference
		// evaluation, not that the argmax index matches.
		rev, cost, sur, _ := p.offerOutcome(off, got.Price)
		util := 1*(rev-cost) + 0*sur
		if math.Abs(util-want.Utility) > 1e-9 {
			t.Fatalf("trial %d: fast price %.12g has reference utility %.12g, optimum %.12g",
				trial, got.Price, util, want.Utility)
		}
	}
}

// TestPriceMixedStochasticUnchanged ensures the sigmoid model still routes
// through the generic evaluation.
func TestPriceMixedStochasticUnchanged(t *testing.T) {
	model, err := adoption.New(2.0, 1, adoption.DefaultEpsilon)
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(model, DefaultLevels)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	off := randomMixedOffer(rng, 25, false)
	got := p.PriceMixed(off)
	want := referencePriceMixed(p, off)
	if got != want {
		t.Fatalf("stochastic quote = %+v, reference %+v", got, want)
	}
}

// sameMixedQuote asserts a sweep quote matches the reference within 1e-9.
func sameMixedQuote(t *testing.T, label string, got, want MixedQuote) {
	t.Helper()
	if got.Feasible != want.Feasible {
		t.Fatalf("%s: feasible = %v, reference %v", label, got.Feasible, want.Feasible)
	}
	for _, c := range []struct {
		name string
		g, w float64
	}{
		{"price", got.Price, want.Price},
		{"revenue", got.Revenue, want.Revenue},
		{"baseline", got.Baseline, want.Baseline},
		{"adopters", got.Adopters, want.Adopters},
		{"utility", got.Utility, want.Utility},
		{"surplus", got.Surplus, want.Surplus},
	} {
		if math.Abs(c.g-c.w) > 1e-9 {
			t.Fatalf("%s: %s = %.15g, reference %.15g", label, c.name, c.g, c.w)
		}
	}
}

// levelPrice is the sweep's own float expression for grid level t.
func levelPrice(p *Pricer, off MixedOffer, t int) float64 {
	return off.Lo + (off.Hi-off.Lo)*float64(t)/float64(p.Levels()+1)
}

// TestPriceMixedStepNarrowWindow covers windows whose grid spacing is at
// most 4ε: a consumer's threshold then lies in the ε tie band of several
// consecutive levels, which the sweep resolves as one contiguous run.
func TestPriceMixedStepNarrowWindow(t *testing.T) {
	const eps = adoption.DefaultEpsilon
	p := Default()
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 100; trial++ {
		m := 1 + rng.Intn(40)
		lo := 1 + rng.Float64()*20
		width := float64(p.Levels()+1) * 4 * eps * (0.05 + rng.Float64()*0.9)
		off := MixedOffer{
			CurPay:     make([]float64, m),
			CurSurplus: make([]float64, m),
			WB:         make([]float64, m),
			Lo:         lo,
			Hi:         lo + width,
		}
		for j := 0; j < m; j++ {
			off.CurSurplus[j] = rng.Float64() * 2
			off.WB[j] = lo - width/2 + rng.Float64()*2*width + off.CurSurplus[j]
			off.CurPay[j] = rng.Float64() * lo
		}
		// Midway between two levels at most 4ε apart is within 2ε of both.
		off.WB[0] = (levelPrice(p, off, 50)+levelPrice(p, off, 51))/2 + off.CurSurplus[0]
		// The window must actually put some consumer in the band at two or
		// more levels, or this test covers nothing the wide ones do not.
		multi := false
		for j := range off.WB {
			tau := off.WB[j] - off.CurSurplus[j]
			band := 0
			for l := 1; l <= p.Levels(); l++ {
				if pb := levelPrice(p, off, l); !(tau > pb+2*eps) && tau >= pb-2*eps {
					band++
				}
			}
			multi = multi || band >= 2
		}
		if !multi {
			t.Fatalf("trial %d: no consumer in the tie band at two levels", trial)
		}
		sameMixedQuote(t, fmt.Sprintf("trial %d", trial), p.PriceMixed(off), referencePriceMixed(p, off))
	}
}

// TestPriceMixedStepBandEdges places thresholds exactly on the band edges
// p_t ± 2ε of several levels (and one float step either side), where the
// join-level estimate must settle by exact comparison.
func TestPriceMixedStepBandEdges(t *testing.T) {
	const eps = adoption.DefaultEpsilon
	p := Default()
	off := MixedOffer{Lo: 7.3, Hi: 19.9}
	for _, l := range []int{1, 2, 37, 50, 99, 100} {
		pb := levelPrice(p, off, l)
		for _, edge := range []float64{pb + 2*eps, pb - 2*eps} {
			for _, tau := range []float64{math.Nextafter(edge, 0), edge, math.Nextafter(edge, math.Inf(1))} {
				// Zero surplus makes τ the bundle WTP itself (α = 1).
				off.WB = append(off.WB, tau)
				off.CurSurplus = append(off.CurSurplus, 0)
				off.CurPay = append(off.CurPay, 0.25*float64(len(off.WB)%4))
			}
		}
	}
	sameMixedQuote(t, "edges", p.PriceMixed(off), referencePriceMixed(p, off))
	// Each edge consumer alone, so no other consumer masks a misfiled one.
	for j := range off.WB {
		one := MixedOffer{Lo: off.Lo, Hi: off.Hi, WB: off.WB[j : j+1], CurSurplus: off.CurSurplus[j : j+1], CurPay: off.CurPay[j : j+1]}
		sameMixedQuote(t, fmt.Sprintf("consumer %d", j), p.PriceMixed(one), referencePriceMixed(p, one))
	}
}

// TestPriceMixedStepOutsideWindow covers thresholds above Hi (switch at
// every level) and below Lo (switch at none).
func TestPriceMixedStepOutsideWindow(t *testing.T) {
	p := Default()
	off := MixedOffer{
		WB:         []float64{40, 35, 3, 1, 12},
		CurSurplus: []float64{1, 0, 0.5, 0, 0},
		CurPay:     []float64{9, 12, 2, 1, 6},
		Lo:         10,
		Hi:         20,
	}
	sameMixedQuote(t, "mixed sides", p.PriceMixed(off), referencePriceMixed(p, off))
	above := MixedOffer{WB: off.WB[:2], CurSurplus: off.CurSurplus[:2], CurPay: off.CurPay[:2], Lo: off.Lo, Hi: off.Hi}
	sameMixedQuote(t, "all above", p.PriceMixed(above), referencePriceMixed(p, above))
	below := MixedOffer{WB: off.WB[2:4], CurSurplus: off.CurSurplus[2:4], CurPay: off.CurPay[2:4], Lo: off.Lo, Hi: off.Hi}
	if q := p.PriceMixed(below); q.Feasible {
		t.Fatalf("thresholds below Lo priced a feasible bundle: %+v", q)
	}
	sameMixedQuote(t, "all below", p.PriceMixed(below), referencePriceMixed(p, below))
}

// TestPriceMixedStepExtremeWindows covers windows where a naive bucket
// estimate (τ − Lo)·(T+1)/(Hi − Lo) overflows int or is not finite: a
// tiny window under large thresholds, a subnormal width and a width that
// overflows to +Inf.
func TestPriceMixedStepExtremeWindows(t *testing.T) {
	p := Default()
	for _, w := range []struct {
		name   string
		lo, hi float64
	}{
		{"tiny", 0, 1e-300},
		{"subnormal", 1e-310, 2e-310},
		{"huge", -1e300, 1e300},
		{"infinite", -1.5e308, 1.5e308},
	} {
		off := MixedOffer{
			WB:         []float64{1e6, 10, 3, 1e-7},
			CurSurplus: []float64{0, 2, 0, 0},
			CurPay:     []float64{0, 0, 1, 0},
			Lo:         w.lo,
			Hi:         w.hi,
		}
		sameMixedQuote(t, w.name, p.PriceMixed(off), referencePriceMixed(p, off))
	}
}

// TestPriceMixedStepZeroWTP: with no bundle WTP anywhere nobody switches,
// and the quote is the baseline.
func TestPriceMixedStepZeroWTP(t *testing.T) {
	p := Default()
	off := MixedOffer{
		WB:          make([]float64, 5),
		CurSurplus:  []float64{0, 1, 2, 0, 3},
		CurPay:      []float64{1, 2, 3, 4, 5},
		CurCost:     []float64{0.5, 0, 1, 0, 0},
		CurESurplus: []float64{0, 1, 2, 0, 3},
		Lo:          5,
		Hi:          9,
	}
	got := p.PriceMixed(off)
	if got.Feasible || got.Revenue != 15 {
		t.Fatalf("all-zero WB: quote %+v, want the infeasible baseline", got)
	}
	sameMixedQuote(t, "zero WB", got, referencePriceMixed(p, off))
}

// TestPriceMixedInNoAllocs pins the deterministic mixed kernel at zero
// allocations once its scratch is warm.
func TestPriceMixedInNoAllocs(t *testing.T) {
	p := Default()
	off := randomMixedOffer(rand.New(rand.NewSource(4)), 300, true)
	sc := NewScratch(p.Levels())
	p.PriceMixedIn(sc, off)
	if allocs := testing.AllocsPerRun(50, func() { p.PriceMixedIn(sc, off) }); allocs != 0 {
		t.Fatalf("PriceMixedIn allocates %v times per call, want 0", allocs)
	}
}

// TestJoinLevelMatchesScan checks the sweep's join level against a plain
// scan of the level prices, for thresholds on and one float step either
// side of every level's edge p_t + 2ε, over wide, narrow and coarse grids
// (where the level prices collapse onto a few floats and the float-space
// estimate can miss by several levels).
func TestJoinLevelMatchesScan(t *testing.T) {
	const eps = adoption.DefaultEpsilon
	p := Default()
	T := p.Levels()
	for _, w := range []struct{ lo, hi float64 }{
		{8, 20}, {10, 10 + 2e-4}, {1e9, 1e9 + 1e-5}, {3e11, 3e11 + 1e-3}, {0, 1e-300}, {-1e300, 1e300},
	} {
		off := MixedOffer{Lo: w.lo, Hi: w.hi}
		lv := make([]mixedLevel, T+1)
		for l := range lv {
			lv[l].pb = levelPrice(p, off, l)
		}
		scale := float64(T+1) / (off.Hi - off.Lo)
		check := func(tau float64) {
			want := 0
			for l := 1; l <= T; l++ {
				if tau > lv[l].pb+2*eps {
					want = l
				}
			}
			if got := joinLevel(lv, tau, (tau-2*eps-off.Lo)*scale); got != want {
				t.Fatalf("window (%g, %g), τ = %.17g: join level %d, scan %d", w.lo, w.hi, tau, got, want)
			}
		}
		for l := 0; l <= T; l++ {
			edge := lv[l].pb + 2*eps
			check(math.Nextafter(edge, math.Inf(-1)))
			check(edge)
			check(math.Nextafter(edge, math.Inf(1)))
		}
		check(math.Inf(1))
		check(math.Inf(-1))
		check(math.NaN())
	}
}

package config

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"bundling/internal/wtp"
)

// equivMatrix builds a random price-like WTP matrix for the equivalence
// suite.
func equivMatrix(t *testing.T, seed int64, users, items int, density float64) *wtp.Matrix {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	w := wtp.MustNew(users, items)
	for u := 0; u < users; u++ {
		for i := 0; i < items; i++ {
			if rng.Float64() < density {
				w.MustSet(u, i, 0.5+rng.Float64()*30)
			}
		}
	}
	return w
}

// referenceParams returns p with the incremental union fast path disabled,
// so candidate merges rebuild their vectors with the postings-scan
// reference (wtp.Matrix.BundleVector).
func referenceParams(p Params) Params {
	p.referenceEval = true
	return p
}

// sameConfiguration asserts two configurations agree: same bundle and
// retained-component partitions, and prices/revenues within tol.
func sameConfiguration(t *testing.T, label string, got, want *Configuration, tol float64) {
	t.Helper()
	if math.Abs(got.Revenue-want.Revenue) > tol {
		t.Errorf("%s: revenue %.12f, reference %.12f", label, got.Revenue, want.Revenue)
	}
	sameOffers(t, label+" bundle", got.Bundles, want.Bundles, tol)
	sameOffers(t, label+" component", got.Components, want.Components, tol)
}

// sameOffers asserts two offer lists hold the same item sets (in any order)
// with prices and revenues within tol. The lists are sorted in place.
func sameOffers(t *testing.T, label string, got, want []Bundle, tol float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d offers, reference %d", label, len(got), len(want))
	}
	key := func(b Bundle) string { return fmt.Sprint(b.Items) }
	sort.Slice(got, func(i, j int) bool { return key(got[i]) < key(got[j]) })
	sort.Slice(want, func(i, j int) bool { return key(want[i]) < key(want[j]) })
	for i := range want {
		g, r := got[i], want[i]
		if key(g) != key(r) {
			t.Fatalf("%s[%d]: items %v, reference %v", label, i, g.Items, r.Items)
		}
		if math.Abs(g.Price-r.Price) > tol {
			t.Errorf("%s %v: price %.12f, reference %.12f", label, g.Items, g.Price, r.Price)
		}
		if math.Abs(g.Revenue-r.Revenue) > tol {
			t.Errorf("%s %v: revenue %.12f, reference %.12f", label, g.Items, g.Revenue, r.Revenue)
		}
	}
}

// TestIncrementalMergeEquivalence runs every iterative algorithm under both
// strategies and several θ values twice — once through the incremental
// cached-vector union fast path, once through the postings-scan reference —
// and requires the resulting configurations to agree within 1e-9.
func TestIncrementalMergeEquivalence(t *testing.T) {
	w := equivMatrix(t, 11, 80, 24, 0.25)
	algorithms := []struct {
		name string
		run  func(*wtp.Matrix, Params) (*Configuration, error)
	}{
		{"greedy", GreedyMerge},
		{"matching", MatchingBased},
		{"freqitemset", func(w *wtp.Matrix, p Params) (*Configuration, error) {
			return FreqItemset(w, p, FreqItemsetOptions{MinSupport: 0.05})
		}},
	}
	for _, theta := range []float64{-0.1, 0, 0.2} {
		for _, strategy := range []Strategy{Pure, Mixed} {
			for _, alg := range algorithms {
				label := fmt.Sprintf("%s/%v/θ=%g", alg.name, strategy, theta)
				params := DefaultParams()
				params.Strategy = strategy
				params.Theta = theta
				fast, err := alg.run(w, params)
				if err != nil {
					t.Fatalf("%s (fast): %v", label, err)
				}
				ref, err := alg.run(w, referenceParams(params))
				if err != nil {
					t.Fatalf("%s (reference): %v", label, err)
				}
				sameConfiguration(t, label, fast, ref, 1e-9)
			}
		}
	}
}

// TestIncrementalEquivalenceRunToEnd covers the greedy run-to-end variant,
// whose candidate heap must also contain non-gaining merges.
func TestIncrementalEquivalenceRunToEnd(t *testing.T) {
	w := equivMatrix(t, 5, 50, 16, 0.3)
	params := DefaultParams()
	params.GreedyRunToEnd = true
	fast, err := GreedyMerge(w, params)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := GreedyMerge(w, referenceParams(params))
	if err != nil {
		t.Fatal(err)
	}
	sameConfiguration(t, "greedy/run-to-end", fast, ref, 1e-9)
}

// TestEvalPairsDeterministic verifies the chunked parallel evaluation is
// invariant to worker count.
func TestEvalPairsDeterministic(t *testing.T) {
	w := equivMatrix(t, 23, 60, 20, 0.3)
	var base *Configuration
	for _, workers := range []int{1, 2, 7} {
		params := DefaultParams()
		params.Strategy = Mixed
		params.Parallelism = workers
		cfg, err := GreedyMerge(w, params)
		if err != nil {
			t.Fatal(err)
		}
		if base == nil {
			base = cfg
			continue
		}
		sameConfiguration(t, fmt.Sprintf("parallelism=%d", workers), cfg, base, 0)
	}
}

package fim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestMineValidation(t *testing.T) {
	if _, err := MineMaximal(-1, nil, Config{}); err == nil {
		t.Error("expected error for negative universe")
	}
	if _, err := MineMaximal(2, [][]int{{5}}, Config{}); err == nil {
		t.Error("expected error for out-of-universe item")
	}
}

func TestEmptyTransactions(t *testing.T) {
	got, err := MineMaximal(5, nil, Config{MinSupport: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("expected no itemsets, got %v", got)
	}
}

func TestHandWorkedExample(t *testing.T) {
	// Classic example: transactions over items {0,1,2,3}.
	txs := [][]int{
		{0, 1, 2},
		{0, 1, 2},
		{0, 1},
		{2, 3},
		{3},
	}
	got, err := MineMaximal(4, txs, Config{MinSupport: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Frequent itemsets at minsup 2: {0}:3 {1}:3 {2}:3 {3}:2 {0,1}:3
	// {0,2}:2 {1,2}:2 {0,1,2}:2 {2,3}:1(no). Maximal: {0,1,2}, {3}.
	want := map[string]int{"0,1,2": 2, "3": 2}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for _, is := range got {
		k := key(is.Items)
		sup, ok := want[k]
		if !ok {
			t.Errorf("unexpected maximal itemset %v", is.Items)
			continue
		}
		if is.Support != sup {
			t.Errorf("itemset %v support = %d, want %d", is.Items, is.Support, sup)
		}
	}
}

func TestMaxSizeCap(t *testing.T) {
	txs := [][]int{{0, 1, 2, 3}, {0, 1, 2, 3}, {0, 1, 2, 3}}
	got, err := MineMaximal(4, txs, Config{MinSupport: 2, MaxSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, is := range got {
		if len(is.Items) > 2 {
			t.Errorf("itemset %v exceeds max size 2", is.Items)
		}
	}
	if len(got) == 0 {
		t.Error("expected size-capped itemsets")
	}
}

func TestMaxResultsStopsSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	txs := make([][]int, 60)
	for i := range txs {
		for j := 0; j < 12; j++ {
			if rng.Float64() < 0.4 {
				txs[i] = append(txs[i], j)
			}
		}
	}
	got, err := MineMaximal(12, txs, Config{MinSupport: 2, MaxResults: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) > 3 {
		t.Errorf("MaxResults=3 but got %d itemsets", len(got))
	}
}

func TestDuplicateItemsInTransaction(t *testing.T) {
	got, err := MineMaximal(2, [][]int{{0, 0, 1}, {0, 1, 1}}, Config{MinSupport: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || key(got[0].Items) != "0,1" || got[0].Support != 2 {
		t.Fatalf("got %v, want [{0,1} support 2]", got)
	}
}

// bruteMaximal computes maximal frequent itemsets by full enumeration.
func bruteMaximal(items int, txs [][]int, minsup, maxSize int) map[string]int {
	var frequent []([]int)
	sup := map[string]int{}
	for mask := 1; mask < 1<<uint(items); mask++ {
		var set []int
		for i := 0; i < items; i++ {
			if mask&(1<<uint(i)) != 0 {
				set = append(set, i)
			}
		}
		if maxSize > 0 && len(set) > maxSize {
			continue
		}
		s := Support(set, txs)
		if s >= minsup {
			frequent = append(frequent, set)
			sup[key(set)] = s
		}
	}
	maximal := map[string]int{}
	for _, a := range frequent {
		isMax := true
		for _, b := range frequent {
			if len(b) > len(a) && contains(b, a) {
				isMax = false
				break
			}
		}
		if isMax {
			maximal[key(a)] = sup[key(a)]
		}
	}
	return maximal
}

func contains(super, sub []int) bool {
	have := map[int]bool{}
	for _, i := range super {
		have[i] = true
	}
	for _, i := range sub {
		if !have[i] {
			return false
		}
	}
	return true
}

func key(items []int) string {
	s := append([]int(nil), items...)
	sort.Ints(s)
	out := ""
	for i, v := range s {
		if i > 0 {
			out += ","
		}
		out += itoa(v)
	}
	return out
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var b []byte
	for v > 0 {
		b = append([]byte{byte('0' + v%10)}, b...)
		v /= 10
	}
	return string(b)
}

// TestQuickAgainstBruteForce cross-checks the miner on random small
// databases, both uncapped and size-capped.
func TestQuickAgainstBruteForce(t *testing.T) {
	f := func(seed int64, minsupRaw, maxSizeRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		items := 3 + rng.Intn(6) // ≤ 8 items
		nTx := 2 + rng.Intn(15)
		txs := make([][]int, nTx)
		for i := range txs {
			for j := 0; j < items; j++ {
				if rng.Float64() < 0.45 {
					txs[i] = append(txs[i], j)
				}
			}
		}
		minsup := 1 + int(minsupRaw%4)
		maxSize := int(maxSizeRaw % 4) // 0 = unlimited
		got, err := MineMaximal(items, txs, Config{MinSupport: minsup, MaxSize: maxSize})
		if err != nil {
			return false
		}
		want := bruteMaximal(items, txs, minsup, maxSize)
		if len(got) != len(want) {
			return false
		}
		for _, is := range got {
			if want[key(is.Items)] != is.Support {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestSupportOracle(t *testing.T) {
	txs := [][]int{{0, 1}, {1, 2}, {0, 1, 2}}
	if got := Support([]int{1}, txs); got != 3 {
		t.Errorf("Support({1}) = %d, want 3", got)
	}
	if got := Support([]int{0, 2}, txs); got != 1 {
		t.Errorf("Support({0,2}) = %d, want 1", got)
	}
	if got := Support(nil, txs); got != 3 {
		t.Errorf("Support(∅) = %d, want 3", got)
	}
}

// TestSlotIndexAgainstLinearScan drives the vertical maximality index with
// random sets and checks every subsumption answer, the retired subsets and
// the final order against a linear scan of the recorded collection, through
// many bitmap growths and compactions. The second item pool collides in
// item signature bits, so retiring rests on the exact check; it retires too
// few sets to force a compaction.
func TestSlotIndexAgainstLinearScan(t *testing.T) {
	subset := func(a, b []int) bool { return contains(b, a) }
	for _, c := range []struct {
		pool     []int
		compacts bool
	}{
		{[]int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, true},
		{[]int{0, 1, 2, 3, 4, 5, 64, 65, 66, 67, 68, 69}, false},
	} {
		pool := c.pool
		items := pool[len(pool)-1] + 1
		for seed := int64(1); seed <= 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			x := &slotIndex{inM: make([]bool, items)}
			var model [][]int
			adds := 0
			for step := 0; step < 3000; step++ {
				var q []int
				for _, k := range rng.Perm(len(pool))[:1+rng.Intn(5)] {
					q = append(q, pool[k])
				}
				sort.Ints(q)
				want := false
				for _, r := range model {
					if subset(q, r) {
						want = true
						break
					}
				}
				if got := x.subsumed(q, nil); got != want {
					t.Fatalf("items %d seed %d step %d: subsumed(%v) = %v, linear scan %v", items, seed, step, q, got, want)
				}
				if want {
					continue
				}
				kept := model[:0]
				for _, r := range model {
					if !subset(r, q) {
						kept = append(kept, r)
					}
				}
				model = append(kept, q)
				x.add(Itemset{Items: q})
				adds++
				if x.live != len(model) {
					t.Fatalf("items %d seed %d step %d: %d live slots, linear scan %d", items, seed, step, x.live, len(model))
				}
			}
			if c.compacts && x.sw*64 >= adds {
				t.Fatalf("items %d seed %d: %d adds fit %d-word bitmaps without compaction", items, seed, adds, x.sw)
			}
			got := x.results()
			if len(got) != len(model) {
				t.Fatalf("items %d seed %d: %d results, linear scan %d", items, seed, len(got), len(model))
			}
			for k := range model {
				if key(got[k].Items) != key(model[k]) {
					t.Fatalf("items %d seed %d: result %d = %v, linear scan %v", items, seed, k, got[k].Items, model[k])
				}
			}
		}
	}
}

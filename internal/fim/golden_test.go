package fim

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bundling/internal/dataset"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/maximal.golden from the current miner")

// corpusTransactions is the bundling baseline's input on a generated
// 200-consumer × 60-item corpus: one transaction per consumer, holding the
// items she rated.
func corpusTransactions(tb testing.TB) (int, [][]int) {
	tb.Helper()
	ds, err := dataset.Generate(dataset.GenConfig{Users: 200, Items: 60, RatingsPerUser: 18, Seed: 7})
	if err != nil {
		tb.Fatal(err)
	}
	txs := make([][]int, ds.Users)
	for _, r := range ds.Ratings {
		txs[r.Consumer] = append(txs[r.Consumer], r.Item)
	}
	return ds.Items, txs
}

// TestMineMaximalGolden pins MineMaximal's full output — every itemset's
// items and support, in result order — on a generated corpus at minimum
// support 2, uncapped, size-capped and result-capped. The brute-force
// check compares sets; only a pinned order notices when a rewrite changes
// the search order, which decides what a MaxResults cap keeps. Regenerate
// with go test ./internal/fim -run TestMineMaximalGolden -update-golden
// only when a change of output is intended.
func TestMineMaximalGolden(t *testing.T) {
	items, txs := corpusTransactions(t)
	var b strings.Builder
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"uncapped", Config{MinSupport: 2}},
		{"max-size-3", Config{MinSupport: 2, MaxSize: 3}},
		{"max-results-100", Config{MinSupport: 2, MaxResults: 100}},
	} {
		got, err := MineMaximal(items, txs, c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "# %s: %d itemsets\n", c.name, len(got))
		for _, is := range got {
			fmt.Fprintf(&b, "%d:", is.Support)
			for _, i := range is.Items {
				fmt.Fprintf(&b, " %d", i)
			}
			b.WriteByte('\n')
		}
	}
	path := filepath.Join("testdata", "maximal.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(b.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if gotLines[i] != wantLines[i] {
			t.Fatalf("line %d: got %q, want %q", i+1, gotLines[i], wantLines[i])
		}
	}
	if len(gotLines) != len(wantLines) {
		t.Fatalf("got %d lines, want %d", len(gotLines), len(wantLines))
	}
}

package config

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"bundling/internal/dataset"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden.json from the current solvers")

// goldenPath holds pinned configurations; see TestGoldenConfigurations.
var goldenPath = filepath.Join("testdata", "golden.json")

// goldenConfig is the pinned part of one solve's answer.
type goldenConfig struct {
	Revenue    float64  `json:"revenue"`
	Bundles    []Bundle `json:"bundles"`
	Components []Bundle `json:"components,omitempty"`
}

// TestGoldenConfigurations pins the answers of components, optimal2,
// matching and greedy, pure and mixed, on a fixed generated corpus: total
// revenue, every bundle's items, price and revenue, and the retained
// components. The equivalence suites run the same pricing kernel on both
// sides, so only a pinned answer notices when a kernel rewrite changes a
// result. Answers must hold within 1e-9; regenerate with
// go test ./internal/config -run TestGoldenConfigurations -update-golden
// only when a change of answer is intended.
func TestGoldenConfigurations(t *testing.T) {
	ds, err := dataset.Generate(dataset.GenConfig{Users: 200, Items: 60, RatingsPerUser: 18, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	w, err := ds.WTP(1.25)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]goldenConfig{}
	for _, strategy := range []Strategy{Pure, Mixed} {
		p := DefaultParams()
		p.Strategy = strategy
		p.Theta = 0.05
		s, err := NewSolver(w, p)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range []Algorithm{ComponentsAlgorithm(), Optimal2Algorithm(), MatchingAlgorithm(), GreedyAlgorithm()} {
			cfg, err := s.Solve(a)
			if err != nil {
				t.Fatal(err)
			}
			got[a.Name()+"/"+strategy.String()] = goldenConfig{Revenue: cfg.Revenue, Bundles: cfg.Bundles, Components: cfg.Components}
		}
	}
	if *updateGolden {
		buf, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	buf, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]goldenConfig
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden file has %d solves, test runs %d", len(want), len(got))
	}
	for label, g := range got {
		wc, ok := want[label]
		if !ok {
			t.Fatalf("%s: missing from %s", label, goldenPath)
		}
		sameConfiguration(t, label,
			&Configuration{Revenue: g.Revenue, Bundles: g.Bundles, Components: g.Components},
			&Configuration{Revenue: wc.Revenue, Bundles: wc.Bundles, Components: wc.Components}, 1e-9)
	}
}

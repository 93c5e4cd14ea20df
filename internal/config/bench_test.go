package config

import (
	"testing"

	"bundling/internal/dataset"
)

// BenchmarkEvalMerge prices every mergeable singleton pair of a generated
// 600×150 corpus (θ = 0.05) once per iteration, serially, as the first
// round of matching and greedy does; ns/op and allocs/op are per round.
func BenchmarkEvalMerge(b *testing.B) {
	ds, err := dataset.Generate(dataset.GenConfig{Users: 600, Items: 150, RatingsPerUser: 18, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	w, err := ds.WTP(1.25)
	if err != nil {
		b.Fatal(err)
	}
	for _, strat := range []Strategy{Pure, Mixed} {
		b.Run(strat.String(), func(b *testing.B) {
			p := DefaultParams()
			p.Strategy = strat
			p.Theta = 0.05
			s, err := NewSolver(w, p)
			if err != nil {
				b.Fatal(err)
			}
			e := s.newEngine()
			defer e.release()
			nodes := e.singletons()
			var pairs [][2]*node
			for i := range nodes {
				for j := i + 1; j < len(nodes); j++ {
					if e.mergeable(nodes[i], nodes[j]) {
						pairs = append(pairs, [2]*node{nodes[i], nodes[j]})
					}
				}
			}
			round := func() {
				for _, pr := range pairs {
					e.evalMerge(pr[0], pr[1], false)
				}
			}
			round() // warm the scratch
			b.ReportAllocs()
			for b.Loop() {
				round()
			}
		})
	}
}

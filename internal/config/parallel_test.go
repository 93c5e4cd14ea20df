package config

import (
	"fmt"
	"testing"
)

// TestParallelismDeterministic: the configuration is bit-identical across
// worker counts — parallelism must never change results, down to every
// price and retained component.
func TestParallelismDeterministic(t *testing.T) {
	w := smallRandomMatrix(t, 80, 14, 6)
	for _, strat := range []Strategy{Pure, Mixed} {
		for _, a := range []Algorithm{Optimal2Algorithm(), MatchingAlgorithm(), GreedyAlgorithm()} {
			var ref *Configuration
			for _, workers := range []int{1, 2, 4, 7} {
				p := DefaultParams()
				p.Strategy = strat
				p.Theta = 0.1
				p.Parallelism = workers
				s, err := NewSolver(w, p)
				if err != nil {
					t.Fatal(err)
				}
				cfg, err := s.Solve(a)
				if err != nil {
					t.Fatal(err)
				}
				if ref == nil {
					ref = cfg
					continue
				}
				sameConfiguration(t, fmt.Sprintf("%s/%v/workers=%d", a.Name(), strat, workers), cfg, ref, 0)
			}
		}
	}
}

// TestEvalMergeNoAllocs pins candidate pricing at zero allocations once the
// worker scratch is warm: pure and mixed candidates are priced entirely in
// scratch, and only an accepted merge (engine.commit) allocates its node.
func TestEvalMergeNoAllocs(t *testing.T) {
	w := smallRandomMatrix(t, 80, 14, 6)
	for _, strat := range []Strategy{Pure, Mixed} {
		p := DefaultParams()
		p.Strategy = strat
		s, err := NewSolver(w, p)
		if err != nil {
			t.Fatal(err)
		}
		e := s.newEngine()
		nodes := e.singletons()
		a, b := mergeablePair(t, e, nodes) // also warms the scratch
		if allocs := testing.AllocsPerRun(50, func() { e.evalMergeWith(e.ctx, a, b, true) }); allocs != 0 {
			t.Errorf("%v: evalMergeWith allocates %v times per candidate, want 0", strat, allocs)
		}
		e.release()
	}
}

// mergeablePair returns the first pair of nodes whose merge prices a
// gaining candidate in the run's serial context.
func mergeablePair(t *testing.T, e *engine, nodes []*node) (*node, *node) {
	t.Helper()
	for i := range nodes {
		for j := i + 1; j < len(nodes); j++ {
			if e.mergeable(nodes[i], nodes[j]) {
				if _, _, ok := e.evalMerge(nodes[i], nodes[j], false); ok {
					return nodes[i], nodes[j]
				}
			}
		}
	}
	t.Fatal("no gaining candidate merge")
	return nil, nil
}

func TestParallelismValidation(t *testing.T) {
	p := DefaultParams()
	p.Parallelism = -1
	if err := p.Validate(); err == nil {
		t.Error("negative parallelism should fail validation")
	}
}

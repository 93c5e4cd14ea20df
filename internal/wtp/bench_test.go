package wtp

import (
	"math/rand"
	"testing"
)

// BenchmarkShardBundleVector builds the vector of a 5-item bundle on a
// 600×150 matrix, the repo benchmark's solve-set shape, into reused dst.
func BenchmarkShardBundleVector(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	sh := randomMatrix(b, rng, 600, 150, 0.1).Shard(0)
	items := []int{3, 17, 42, 90, 131}
	ids, vals := sh.BundleVector(items, 0.05, nil, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ids, vals = sh.BundleVector(items, 0.05, ids, vals)
	}
}

// BenchmarkShardApplyDelta applies a 1-cell delta to the shard of a dense
// 2048×150 matrix.
func BenchmarkShardApplyDelta(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	w := randomMatrix(b, rng, 2048, 150, 0.5)
	sh := w.Shard(0)
	cells := []Cell{{Consumer: 700, Item: 9, Value: 12.5}}
	nw, err := w.WithDelta(cells)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sh.ApplyDelta(nw, cells); err != nil {
			b.Fatal(err)
		}
	}
}

package fim

import (
	"math/rand"
	"testing"
)

func benchTransactions(nTx, items, perTx int, seed int64) [][]int {
	rng := rand.New(rand.NewSource(seed))
	txs := make([][]int, nTx)
	for i := range txs {
		for k := 0; k < perTx; k++ {
			txs[i] = append(txs[i], rng.Intn(items))
		}
	}
	return txs
}

func BenchmarkMineMaximalSparse(b *testing.B) {
	txs := benchTransactions(1000, 200, 10, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MineMaximal(200, txs, Config{MinSupport: 5}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMineMaximalDense(b *testing.B) {
	txs := benchTransactions(300, 40, 12, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MineMaximal(40, txs, Config{MinSupport: 10}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMineMaximalSizeCapped(b *testing.B) {
	txs := benchTransactions(500, 80, 10, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MineMaximal(80, txs, Config{MinSupport: 5, MaxSize: 3}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMineMaximalCorpus mines the bundling baseline's input on the
// corpus shape the repo benchmark solves: 200 consumers × 60 items, minimum
// support 2.
func BenchmarkMineMaximalCorpus(b *testing.B) {
	items, txs := corpusTransactions(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MineMaximal(items, txs, Config{MinSupport: 2}); err != nil {
			b.Fatal(err)
		}
	}
}

package pricing

import (
	"math/rand"
	"testing"

	"bundling/internal/adoption"
)

func randomWTPs(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.Float64() * 30
	}
	return out
}

func BenchmarkPriceOptimalStep1000(b *testing.B) {
	pr := Default()
	wtps := randomWTPs(1000, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pr.PriceOptimal(wtps)
	}
}

func BenchmarkPriceOptimalSigmoidBucketed1000(b *testing.B) {
	m, _ := adoption.New(1, 1, adoption.DefaultEpsilon)
	pr, _ := New(m, DefaultLevels)
	wtps := randomWTPs(1000, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pr.PriceOptimal(wtps)
	}
}

func BenchmarkPriceOptimalSigmoidExact1000(b *testing.B) {
	m, _ := adoption.New(1, 1, adoption.DefaultEpsilon)
	pr, _ := New(m, DefaultLevels)
	pr.SetExact(true)
	wtps := randomWTPs(1000, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pr.PriceOptimal(wtps)
	}
}

func BenchmarkPriceUtility1000(b *testing.B) {
	pr := Default()
	wtps := randomWTPs(1000, 1)
	obj := Objective{ProfitWeight: 0.8, UnitCost: 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pr.PriceUtility(wtps, obj)
	}
}

// benchMixedOffer is a wide-window offer: m consumers whose switch
// thresholds spread across the whole (Lo, Hi) grid and beyond it.
func benchMixedOffer(m int) MixedOffer {
	rng := rand.New(rand.NewSource(2))
	off := MixedOffer{
		CurPay:     make([]float64, m),
		CurSurplus: make([]float64, m),
		WB:         make([]float64, m),
		Lo:         8, Hi: 20,
	}
	for j := 0; j < m; j++ {
		off.CurPay[j] = rng.Float64() * 10
		off.CurSurplus[j] = rng.Float64() * 4
		off.WB[j] = rng.Float64() * 25
	}
	return off
}

// narrowMixedOffer is a window whose grid spacing is below 4ε, with every
// switch threshold inside or next to it, so most consumers sit in the ε tie
// band at several consecutive levels.
func narrowMixedOffer(m int) MixedOffer {
	rng := rand.New(rand.NewSource(5))
	off := MixedOffer{
		CurPay:     make([]float64, m),
		CurSurplus: make([]float64, m),
		WB:         make([]float64, m),
		Lo:         10, Hi: 10 + 2e-4,
	}
	for j := 0; j < m; j++ {
		off.CurSurplus[j] = rng.Float64() * 3
		off.WB[j] = off.Lo - 1e-4 + rng.Float64()*4e-4 + off.CurSurplus[j]
		off.CurPay[j] = rng.Float64() * 9
	}
	return off
}

// BenchmarkPriceMixed prices one deterministic mixed offer with warmed
// scratch: m=600 is a bench-scale bundle audience, m=4449 every consumer of
// the paper-scale corpus.
func BenchmarkPriceMixed(b *testing.B) {
	for _, c := range []struct {
		name string
		off  MixedOffer
	}{
		{"m=600", benchMixedOffer(600)},
		{"m=1000", benchMixedOffer(1000)},
		{"m=4449", benchMixedOffer(4449)},
		{"narrow/m=600", narrowMixedOffer(600)},
	} {
		b.Run(c.name, func(b *testing.B) {
			pr := Default()
			sc := NewScratch(pr.Levels())
			pr.PriceMixedIn(sc, c.off)
			b.ReportAllocs()
			for b.Loop() {
				pr.PriceMixedIn(sc, c.off)
			}
		})
	}
}

func BenchmarkPriceFromList1000(b *testing.B) {
	pr := Default()
	pl, _ := NewPriceList([]float64{1.99, 4.99, 9.99, 14.99, 19.99, 24.99})
	wtps := randomWTPs(1000, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pr.PriceFromList(wtps, pl)
	}
}

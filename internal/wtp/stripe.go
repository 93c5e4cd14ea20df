package wtp

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
)

// DefaultStripeSize is the default number of consumers per stripe. Stripes
// of ~1k consumers keep a stripe's columnar postings for a typical bundle
// within L1/L2 while leaving enough stripes to farm out on large corpora.
const DefaultStripeSize = 1024

// Stripe is one fixed-size consumer range of a Shard. Its postings are
// stored columnar (structure-of-arrays): per item, one segment of ascending
// consumer ids and one aligned segment of values. Compared to the Matrix's
// []Entry rows this halves the bytes touched by a consumer-id scan, and a
// freshly built stripe cuts all its segments from one contiguous pair of
// arrays, so per-stripe aggregation is cache-local and independent of every
// other stripe — the unit of work a scheduler can hand to a worker
// goroutine or, eventually, another machine. Segments are immutable and
// shared: a delta replaces only the segments of the items it touches.
type Stripe struct {
	lo, hi  int       // consumer range [lo, hi)
	segs    []segment // per item
	entries int       // total entries over all segments
}

// segment is one item's postings within a stripe.
type segment struct {
	ids  []int32   // consumer ids, ascending
	vals []float64 // WTP values aligned with ids
}

// Bounds returns the stripe's consumer range [lo, hi).
func (st *Stripe) Bounds() (lo, hi int) { return st.lo, st.hi }

// Item returns the stripe's columnar postings segment for item i: the
// consumers of this stripe with non-zero WTP for i (ascending) and their
// values. The slices must not be modified.
func (st *Stripe) Item(i int) ([]int32, []float64) {
	return st.segs[i].ids, st.segs[i].vals
}

// Entries returns the total number of non-zero entries in the stripe.
func (st *Stripe) Entries() int { return st.entries }

// cut points the stripe's segments into ids and vals at the per-item
// offsets offs (len items+1). Each segment's capacity ends at its length,
// so no append through one can reach its neighbour.
func (st *Stripe) cut(offs []int32, ids []int32, vals []float64) {
	n := len(offs) - 1
	st.segs = make([]segment, n)
	for i := 0; i < n; i++ {
		a, b := offs[i], offs[i+1]
		st.segs[i] = segment{ids: ids[a:b:b], vals: vals[a:b:b]}
	}
	st.entries = len(ids)
}

// Shard is an immutable striped snapshot of a Matrix: the consumer axis cut
// into fixed-size stripes, each holding columnar per-stripe postings.
// Because stripes partition the consumers in ascending-id order, any
// per-consumer aggregate over the whole matrix is the in-order concatenation
// (or sum) of independent per-stripe aggregates; BundleVector and
// UnionVectors below reduce over stripes exactly that way.
//
// A Shard is built once (Matrix.Shard) and is safe for concurrent use. It
// snapshots the matrix at construction: mutating the matrix afterwards
// invalidates the shard, which every accessor guards against by panicking on
// a version mismatch rather than returning silently stale data.
type Shard struct {
	w       *Matrix
	version uint64
	size    int
	stripes []Stripe
}

// Shard builds a striped columnar snapshot of the matrix. stripeSize is the
// number of consumers per stripe; 0 or negative selects DefaultStripeSize.
func (w *Matrix) Shard(stripeSize int) *Shard {
	if stripeSize <= 0 {
		stripeSize = DefaultStripeSize
	}
	numStripes := (w.m + stripeSize - 1) / stripeSize
	if numStripes == 0 {
		numStripes = 1 // keep a degenerate 0-consumer matrix iterable
	}
	sh := &Shard{w: w, version: w.version, size: stripeSize, stripes: make([]Stripe, numStripes)}
	// Per-item cursors advance monotonically across stripes, so the whole
	// build is one pass over every posting list.
	cursor := make([]int, w.n)
	for s := range sh.stripes {
		lo := s * stripeSize
		hi := lo + stripeSize
		if hi > w.m {
			hi = w.m
		}
		st := &sh.stripes[s]
		st.lo, st.hi = lo, hi
		offs := make([]int32, w.n+1)
		var total int
		for i := 0; i < w.n; i++ {
			offs[i] = int32(total)
			p := w.postings[i]
			c := cursor[i]
			for c < len(p) && p[c].Consumer < hi {
				c++
			}
			total += c - cursor[i]
			cursor[i] = c
		}
		offs[w.n] = int32(total)
		ids := make([]int32, total)
		vals := make([]float64, total)
		// Second pass fills the columnar arrays; walk backwards through the
		// advanced cursors via the recorded offsets.
		for i := 0; i < w.n; i++ {
			seg := w.postings[i][cursor[i]-int(offs[i+1]-offs[i]) : cursor[i]]
			base := int(offs[i])
			for k, e := range seg {
				ids[base+k] = int32(e.Consumer)
				vals[base+k] = e.Value
			}
		}
		st.cut(offs, ids, vals)
	}
	return sh
}

// Matrix returns the matrix the shard was built from.
func (sh *Shard) Matrix() *Matrix { return sh.w }

// Version returns the matrix version the shard snapshotted. Caches layered
// above a shard (e.g. a serving result cache) include it in their keys so
// entries from a replaced corpus can never be served for its successor.
func (sh *Shard) Version() uint64 { return sh.version }

// StripeSize returns the configured consumers-per-stripe.
func (sh *Shard) StripeSize() int { return sh.size }

// Stripes returns the number of stripes.
func (sh *Shard) Stripes() int { return len(sh.stripes) }

// Stripe returns stripe s.
func (sh *Shard) Stripe(s int) *Stripe {
	sh.check()
	return &sh.stripes[s]
}

// check panics when the underlying matrix has been mutated since the shard
// was built; a stale shard would silently misprice everything downstream.
func (sh *Shard) check() {
	if sh.version != sh.w.version {
		panic(fmt.Sprintf("wtp: shard is stale: matrix mutated (version %d → %d); rebuild with Matrix.Shard", sh.version, sh.w.version))
	}
}

// BundleVector is the striped reduction of Matrix.BundleVector: for every
// consumer with non-zero WTP for at least one item of the bundle, the
// consumer's Eq. 1 bundle WTP, as parallel ascending (ids, vals) slices.
// Each stripe is aggregated independently from its columnar segments and the
// per-stripe results concatenate in consumer order. For three or more items
// a stripe sums each consumer's values in item order, so results agree with
// Matrix.BundleVector's heap merge within rounding, not bit for bit. The dst
// slices are reused if they have capacity; a call into dst of sufficient
// capacity allocates nothing.
func (sh *Shard) BundleVector(items []int, theta float64, dstIDs []int, dstVals []float64) ([]int, []float64) {
	sh.check()
	dstIDs = dstIDs[:0]
	dstVals = dstVals[:0]
	if len(items) == 0 {
		return dstIDs, dstVals
	}
	scale := 1 + theta
	for s := range sh.stripes {
		dstIDs, dstVals = sh.stripes[s].appendBundleVector(items, scale, dstIDs, dstVals)
	}
	return dstIDs, dstVals
}

// appendBundleVector aggregates one stripe's contribution to a bundle
// vector, appending to dst.
func (st *Stripe) appendBundleVector(items []int, scale float64, dstIDs []int, dstVals []float64) ([]int, []float64) {
	switch len(items) {
	case 1:
		ids, vals := st.Item(items[0])
		for k, id := range ids {
			if v := vals[k] * scale; v > 0 {
				dstIDs = append(dstIDs, int(id))
				dstVals = append(dstVals, v)
			}
		}
		return dstIDs, dstVals
	case 2:
		aIDs, aVals := st.Item(items[0])
		bIDs, bVals := st.Item(items[1])
		i, j := 0, 0
		for i < len(aIDs) && j < len(bIDs) {
			var u int32
			var sum float64
			switch {
			case aIDs[i] < bIDs[j]:
				u, sum = aIDs[i], aVals[i]
				i++
			case aIDs[i] > bIDs[j]:
				u, sum = bIDs[j], bVals[j]
				j++
			default:
				u, sum = aIDs[i], aVals[i]+bVals[j]
				i++
				j++
			}
			if v := sum * scale; v > 0 {
				dstIDs = append(dstIDs, int(u))
				dstVals = append(dstVals, v)
			}
		}
		for ; i < len(aIDs); i++ {
			if v := aVals[i] * scale; v > 0 {
				dstIDs = append(dstIDs, int(aIDs[i]))
				dstVals = append(dstVals, v)
			}
		}
		for ; j < len(bIDs); j++ {
			if v := bVals[j] * scale; v > 0 {
				dstIDs = append(dstIDs, int(bIDs[j]))
				dstVals = append(dstVals, v)
			}
		}
		return dstIDs, dstVals
	}
	// k ≥ 3: accumulate densely over the stripe's consumer range, adding
	// values in item order, then emit the touched consumers in ascending
	// order, resetting the scratch as they go.
	sc := denseScratch(st.hi - st.lo)
	for _, i := range items {
		ids, vals := st.Item(i)
		for k, id := range ids {
			j := int(id) - st.lo
			sc.acc[j] += vals[k]
			sc.touched[j/64] |= 1 << (j % 64)
		}
	}
	for w, word := range sc.touched {
		for word != 0 {
			j := w*64 + bits.TrailingZeros64(word)
			word &= word - 1
			if v := sc.acc[j] * scale; v > 0 {
				dstIDs = append(dstIDs, st.lo+j)
				dstVals = append(dstVals, v)
			}
			sc.acc[j] = 0
		}
		sc.touched[w] = 0
	}
	densePool.Put(sc)
	return dstIDs, dstVals
}

// dense is the scratch of a k ≥ 3 stripe bundle vector: a per-consumer
// accumulator and a bitmap of the consumers touched. Both are all zero
// between uses.
type dense struct {
	acc     []float64
	touched []uint64
}

var densePool = sync.Pool{New: func() any { return new(dense) }}

// denseScratch returns pooled scratch covering width consumers; the caller
// returns it to densePool once cleared.
func denseScratch(width int) *dense {
	sc := densePool.Get().(*dense)
	if len(sc.acc) < width {
		sc.acc = make([]float64, width)
		sc.touched = make([]uint64, (width+63)/64)
	}
	sc.touched = sc.touched[:(width+63)/64]
	return sc
}

// UnionVectors is the striped reduction of the package-level UnionVectors:
// the two cached consumer vectors are cut at stripe boundaries and each
// stripe's span merged independently, concatenating in consumer order. The
// element-wise arithmetic is identical to the flat merge, so results agree
// exactly; the stripe spans are what a distributed reducer would ship to the
// worker owning each stripe.
func (sh *Shard) UnionVectors(aIDs []int, aVals []float64, sa float64, bIDs []int, bVals []float64, sb float64, dstIDs []int, dstVals []float64) ([]int, []float64) {
	sh.check()
	dstIDs = dstIDs[:0]
	dstVals = dstVals[:0]
	i, j := 0, 0
	for s := range sh.stripes {
		hi := sh.stripes[s].hi
		if i >= len(aIDs) && j >= len(bIDs) {
			break
		}
		for i < len(aIDs) && j < len(bIDs) && aIDs[i] < hi && bIDs[j] < hi {
			switch {
			case aIDs[i] < bIDs[j]:
				dstIDs = append(dstIDs, aIDs[i])
				dstVals = append(dstVals, sa*aVals[i])
				i++
			case aIDs[i] > bIDs[j]:
				dstIDs = append(dstIDs, bIDs[j])
				dstVals = append(dstVals, sb*bVals[j])
				j++
			default:
				dstIDs = append(dstIDs, aIDs[i])
				if sa == sb {
					// Match the flat merge's factored rounding (see
					// UnionVectors).
					dstVals = append(dstVals, sa*(aVals[i]+bVals[j]))
				} else {
					dstVals = append(dstVals, sa*aVals[i]+sb*bVals[j])
				}
				i++
				j++
			}
		}
		for i < len(aIDs) && aIDs[i] < hi && (j >= len(bIDs) || bIDs[j] >= hi) {
			dstIDs = append(dstIDs, aIDs[i])
			dstVals = append(dstVals, sa*aVals[i])
			i++
		}
		for j < len(bIDs) && bIDs[j] < hi && (i >= len(aIDs) || aIDs[i] >= hi) {
			dstIDs = append(dstIDs, bIDs[j])
			dstVals = append(dstVals, sb*bVals[j])
			j++
		}
	}
	return dstIDs, dstVals
}

// ForEachStripe runs fn(s, stripe) for every stripe, farming the stripes to
// up to workers goroutines (workers ≤ 1 runs inline). Stripes are disjoint
// consumer ranges, so fn invocations may write to per-consumer structures
// without synchronization as long as each write stays inside the stripe's
// Bounds. This is the single-machine form of the shard-level parallelism
// the stripe layout exists for.
func (sh *Shard) ForEachStripe(workers int, fn func(s int, st *Stripe)) {
	sh.check()
	n := len(sh.stripes)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for s := 0; s < n; s++ {
			fn(s, &sh.stripes[s])
		}
		return
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				s := int(cursor.Add(1)) - 1
				if s >= n {
					return
				}
				fn(s, &sh.stripes[s])
			}
		}()
	}
	wg.Wait()
}

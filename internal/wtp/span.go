package wtp

import "fmt"

// This file implements stripe-span extraction and serialization: the unit of
// work a distributed solver ships to a remote worker. A span is a contiguous
// range of a Shard's stripes; SpanDoc is its JSON wire form and SpanStore the
// standalone columnar store a worker rebuilds from it. SpanStore reuses the
// exact per-stripe aggregation kernels of Shard (appendBundleVector, the
// per-stripe union cut), so a per-span result concatenated over a corpus's
// spans in stripe order is identical — element for element, rounding
// included — to the single-machine Shard reduction.

// SpanDoc is the wire form of a contiguous stripe span of a sharded WTP
// matrix: the global dimensions and stripe layout, the matrix version the
// span snapshotted, and the span's per-stripe columnar postings flattened in
// stripe order. It round-trips through JSON or the binary columnar codec
// (internal/codec — the compact default of the cluster feed) and rebuilds
// into a SpanStore on the receiving worker.
type SpanDoc struct {
	Consumers  int `json:"consumers"`   // global consumer count M
	Items      int `json:"items"`       // global item count N
	StripeSize int `json:"stripe_size"` // consumers per stripe of the source shard
	// Version is the span's opaque snapshot identity: every request against
	// the span must present it, so a holder of any other snapshot is
	// detected. Shard.Span seeds it with the matrix mutation version; a
	// distributed producer replaces it with a session-unique nonce, because
	// mutation counters of two different corpora can coincide.
	Version uint64 `json:"version"`
	Start   int    `json:"start"` // first stripe of the span
	End     int    `json:"end"`   // one past the last stripe
	// Offs holds the per-stripe, per-item segment offsets: stripe k of the
	// span owns Offs[k*(Items+1) : (k+1)*(Items+1)], offsets relative to
	// that stripe's own segment of IDs/Vals.
	Offs []int32 `json:"offs"`
	// IDs and Vals are the stripes' columnar postings concatenated in stripe
	// order: ascending consumer ids per item segment and the aligned WTP
	// values.
	IDs  []int32   `json:"ids"`
	Vals []float64 `json:"vals"`
}

// Span serializes stripes [s0, s1) of the shard as a SpanDoc. The document
// copies the columnar arrays, so it stays valid after the shard is dropped.
func (sh *Shard) Span(s0, s1 int) *SpanDoc {
	sh.check()
	if s0 < 0 || s1 < s0 || s1 > len(sh.stripes) {
		panic(fmt.Sprintf("wtp: span [%d,%d) outside %d stripes", s0, s1, len(sh.stripes)))
	}
	d := &SpanDoc{
		Consumers:  sh.w.m,
		Items:      sh.w.n,
		StripeSize: sh.size,
		Version:    sh.version,
		Start:      s0,
		End:        s1,
	}
	n := sh.w.n
	var entries int
	for s := s0; s < s1; s++ {
		entries += sh.stripes[s].entries
	}
	d.Offs = make([]int32, 0, (s1-s0)*(n+1))
	d.IDs = make([]int32, 0, entries)
	d.Vals = make([]float64, 0, entries)
	for s := s0; s < s1; s++ {
		base := len(d.IDs)
		for _, seg := range sh.stripes[s].segs {
			d.Offs = append(d.Offs, int32(len(d.IDs)-base))
			d.IDs = append(d.IDs, seg.ids...)
			d.Vals = append(d.Vals, seg.vals...)
		}
		d.Offs = append(d.Offs, int32(len(d.IDs)-base))
	}
	return d
}

// SpanStore is a standalone columnar store of one stripe span, rebuilt from
// a SpanDoc on a worker (or materialized locally as a fallback replica). It
// serves the per-span reductions of the distributed evaluate path with the
// same per-stripe kernels as Shard, so results concatenate exactly. A
// SpanStore is immutable and safe for concurrent use.
type SpanStore struct {
	consumers  int
	items      int
	stripeSize int
	version    uint64
	start      int
	stripes    []Stripe
}

// Store validates the document and rebuilds its span store.
func (d *SpanDoc) Store() (*SpanStore, error) {
	if d.Consumers < 0 || d.Items < 0 || d.StripeSize <= 0 {
		return nil, fmt.Errorf("wtp: span doc has invalid layout %d×%d stripe %d", d.Consumers, d.Items, d.StripeSize)
	}
	if d.Items > 0 && d.Consumers > maxDenseCells/d.Items {
		// The matrix a real span is cut from obeys New's bound; a stripe
		// wider than it would size the dense bundle-vector scratch.
		return nil, fmt.Errorf("wtp: span doc %d×%d exceeds %d dense cells", d.Consumers, d.Items, maxDenseCells)
	}
	if d.Start < 0 || d.End < d.Start {
		return nil, fmt.Errorf("wtp: span doc range [%d,%d) invalid", d.Start, d.End)
	}
	numStripes := d.End - d.Start
	if len(d.Offs) != numStripes*(d.Items+1) {
		return nil, fmt.Errorf("wtp: span doc has %d offsets for %d stripes × %d items", len(d.Offs), numStripes, d.Items)
	}
	if len(d.IDs) != len(d.Vals) {
		return nil, fmt.Errorf("wtp: span doc has %d ids but %d values", len(d.IDs), len(d.Vals))
	}
	sp := &SpanStore{
		consumers:  d.Consumers,
		items:      d.Items,
		stripeSize: d.StripeSize,
		version:    d.Version,
		start:      d.Start,
		stripes:    make([]Stripe, numStripes),
	}
	base := 0
	for k := 0; k < numStripes; k++ {
		st := &sp.stripes[k]
		st.lo = (d.Start + k) * d.StripeSize
		st.hi = st.lo + d.StripeSize
		if st.hi > d.Consumers {
			st.hi = d.Consumers
		}
		offs := d.Offs[k*(d.Items+1) : (k+1)*(d.Items+1)]
		seg := int(offs[d.Items])
		if seg < 0 || base+seg > len(d.IDs) {
			return nil, fmt.Errorf("wtp: span doc stripe %d overruns its postings", d.Start+k)
		}
		for i := 0; i < d.Items; i++ {
			if offs[i] < 0 || offs[i] > offs[i+1] {
				return nil, fmt.Errorf("wtp: span doc stripe %d has non-monotonic offsets", d.Start+k)
			}
		}
		ids := d.IDs[base : base+seg]
		vals := d.Vals[base : base+seg]
		for j, id := range ids {
			if int(id) < st.lo || int(id) >= st.hi {
				return nil, fmt.Errorf("wtp: span doc stripe %d lists consumer %d outside [%d,%d)", d.Start+k, id, st.lo, st.hi)
			}
			if vals[j] < 0 {
				return nil, fmt.Errorf("wtp: span doc has negative WTP %g", vals[j])
			}
		}
		st.cut(offs, ids, vals)
		base += seg
	}
	if base != len(d.IDs) {
		return nil, fmt.Errorf("wtp: span doc postings length %d does not match stripe segments %d", len(d.IDs), base)
	}
	return sp, nil
}

// Version returns the matrix version the span snapshotted; every RPC against
// the span carries it so a stale worker is detected, re-fed and never
// silently wrong.
func (sp *SpanStore) Version() uint64 { return sp.version }

// Bounds returns the span's consumer range [lo, hi).
func (sp *SpanStore) Bounds() (lo, hi int) {
	if len(sp.stripes) == 0 {
		lo = sp.start * sp.stripeSize
		return lo, lo
	}
	return sp.stripes[0].lo, sp.stripes[len(sp.stripes)-1].hi
}

// StripeRange returns the span's stripe range [start, end) in the source
// shard's numbering.
func (sp *SpanStore) StripeRange() (start, end int) { return sp.start, sp.start + len(sp.stripes) }

// Entries returns the number of non-zero WTP entries in the span.
func (sp *SpanStore) Entries() int {
	var n int
	for i := range sp.stripes {
		n += sp.stripes[i].entries
	}
	return n
}

// Items returns the global item count N.
func (sp *SpanStore) Items() int { return sp.items }

// BundleVector is the span's contribution to Shard.BundleVector: the Eq. 1
// bundle WTP of every interested consumer in the span, reduced per stripe
// with the same kernel the shard uses, so concatenating the spans of a
// corpus in stripe order reproduces the single-machine result exactly.
func (sp *SpanStore) BundleVector(items []int, theta float64, dstIDs []int, dstVals []float64) ([]int, []float64) {
	dstIDs = dstIDs[:0]
	dstVals = dstVals[:0]
	if len(items) == 0 {
		return dstIDs, dstVals
	}
	scale := 1 + theta
	for s := range sp.stripes {
		dstIDs, dstVals = sp.stripes[s].appendBundleVector(items, scale, dstIDs, dstVals)
	}
	return dstIDs, dstVals
}

// UnionVectors is the span's contribution to Shard.UnionVectors: it merges
// the span-restricted slices of two cached consumer vectors, cut and merged
// per stripe exactly as the shard does, so per-span results concatenate to
// the single-machine union.
func (sp *SpanStore) UnionVectors(aIDs []int, aVals []float64, sa float64, bIDs []int, bVals []float64, sb float64, dstIDs []int, dstVals []float64) ([]int, []float64) {
	dstIDs = dstIDs[:0]
	dstVals = dstVals[:0]
	i, j := 0, 0
	for s := range sp.stripes {
		hi := sp.stripes[s].hi
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

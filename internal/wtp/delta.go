package wtp

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// This file implements delta upserts: batched single-cell mutations applied
// copy-on-write to an immutable base snapshot. WithDelta derives a new Matrix
// sharing every untouched row and posting list with its parent;
// Shard.ApplyDelta rebuilds only the mutated items' segments of the stripes
// whose consumers are mutated; and SpanStore.ApplyDelta patches a worker's
// span replica in place of a full re-feed. All three produce state with the
// same contents, segment by segment, as a from-scratch rebuild of the
// mutated matrix, which is what the differential tests assert.

// Cell is one mutation of a delta upsert: set consumer Consumer's WTP for
// item Item to Value, or — when Delete is set — remove the cell outright.
// Within one delta, later cells override earlier ones for the same (consumer,
// item) coordinate.
type Cell struct {
	Consumer int     `json:"consumer"`
	Item     int     `json:"item"`
	Value    float64 `json:"value,omitempty"`
	Delete   bool    `json:"delete,omitempty"`
}

// checkCells validates every cell of a delta against an M×N matrix before
// anything is mutated, so a delta either applies whole or not at all.
func checkCells(cells []Cell, m, n int) error {
	for k, c := range cells {
		if c.Consumer < 0 || c.Consumer >= m || c.Item < 0 || c.Item >= n {
			return fmt.Errorf("wtp: delta cell %d refers to (%d,%d) outside %d×%d", k, c.Consumer, c.Item, m, n)
		}
		if c.Delete {
			if c.Value != 0 {
				return fmt.Errorf("wtp: delta cell %d deletes (%d,%d) but carries value %g", k, c.Consumer, c.Item, c.Value)
			}
			continue
		}
		if c.Value < 0 || math.IsNaN(c.Value) || math.IsInf(c.Value, 0) {
			return fmt.Errorf("wtp: delta cell %d value %g must be finite and non-negative", k, c.Value)
		}
	}
	return nil
}

// WithDelta returns a new matrix with the delta applied, leaving the receiver
// untouched. The result shares every unmodified row and posting list with the
// receiver (copy-on-write), so a one-cell delta costs O(row + posting list),
// not O(matrix). The version advances by exactly one per delta, regardless of
// cell count; an entirely no-op delta still bumps it, keeping the version a
// mutation counter rather than a content hash. The delta is validated up
// front and rejected whole on any bad cell.
func (w *Matrix) WithDelta(cells []Cell) (*Matrix, error) {
	if err := checkCells(cells, w.m, w.n); err != nil {
		return nil, err
	}
	nw := &Matrix{
		m:        w.m,
		n:        w.n,
		rows:     append([][]float64(nil), w.rows...),
		postings: append([][]Entry(nil), w.postings...),
		colSum:   append([]float64(nil), w.colSum...),
		total:    w.total,
		version:  w.version + 1,
		cow:      true,
	}
	for _, c := range cells {
		v := c.Value
		if c.Delete {
			v = 0
		}
		nw.put(c.Consumer, c.Item, v)
	}
	return nw, nil
}

// stripePatch is the per-stripe view of a delta: for each touched item, the
// final (consumer, value) assignments in ascending consumer order, with value
// 0 meaning the cell is deleted. Duplicate coordinates have already been
// collapsed last-wins.
type stripePatch map[int][]Entry

// deltaPatches groups a delta's cells by stripe index (consumer / stripeSize)
// after collapsing duplicate coordinates last-wins, producing per-stripe
// patches ready for patchStripe.
func deltaPatches(cells []Cell, stripeSize int) map[int]stripePatch {
	final := make(map[[2]int]float64, len(cells))
	for _, c := range cells {
		v := c.Value
		if c.Delete {
			v = 0
		}
		final[[2]int{c.Item, c.Consumer}] = v
	}
	out := make(map[int]stripePatch)
	for k, v := range final {
		s := k[1] / stripeSize
		p := out[s]
		if p == nil {
			p = make(stripePatch)
			out[s] = p
		}
		p[k[0]] = append(p[k[0]], Entry{Consumer: k[1], Value: v})
	}
	for _, p := range out {
		for i := range p {
			es := p[i]
			sort.Slice(es, func(a, b int) bool { return es[a].Consumer < es[b].Consumer })
		}
	}
	return out
}

// patchStripe returns a copy of the stripe with the patch applied. Only the
// touched items' segments are rebuilt; every other segment is shared with
// the receiver. Old and patch entries are both ascending per item, so each
// rebuilt segment is a two-pointer merge; a patch value of 0 removes the
// consumer from the segment. Segment contents match a from-scratch Shard
// build exactly.
func patchStripe(st *Stripe, patch stripePatch) Stripe {
	ns := Stripe{lo: st.lo, hi: st.hi, segs: slices.Clone(st.segs), entries: st.entries}
	for i, p := range patch {
		oldIDs, oldVals := st.Item(i)
		ids := make([]int32, 0, len(oldIDs)+len(p))
		vals := make([]float64, 0, len(oldIDs)+len(p))
		k, l := 0, 0
		for k < len(oldIDs) && l < len(p) {
			switch {
			case int(oldIDs[k]) < p[l].Consumer:
				ids = append(ids, oldIDs[k])
				vals = append(vals, oldVals[k])
				k++
			case int(oldIDs[k]) > p[l].Consumer:
				if p[l].Value > 0 {
					ids = append(ids, int32(p[l].Consumer))
					vals = append(vals, p[l].Value)
				}
				l++
			default:
				if p[l].Value > 0 {
					ids = append(ids, oldIDs[k])
					vals = append(vals, p[l].Value)
				}
				k++
				l++
			}
		}
		ids = append(ids, oldIDs[k:]...)
		vals = append(vals, oldVals[k:]...)
		for ; l < len(p); l++ {
			if p[l].Value > 0 {
				ids = append(ids, int32(p[l].Consumer))
				vals = append(vals, p[l].Value)
			}
		}
		ns.segs[i] = segment{ids: ids, vals: vals}
		ns.entries += len(ids) - len(oldIDs)
	}
	return ns
}

// ApplyDelta derives the shard of the mutated matrix from this shard,
// rebuilding only the segments of the items and stripes the delta touches
// and sharing every other segment with the receiver. The mutated matrix
// must come from WithDelta(cells) on this shard's matrix — the new shard
// snapshots its version. The receiver is untouched and stays valid for its
// own matrix.
func (sh *Shard) ApplyDelta(nw *Matrix, cells []Cell) (*Shard, error) {
	sh.check()
	if nw.m != sh.w.m || nw.n != sh.w.n {
		return nil, fmt.Errorf("wtp: delta shard rebase %d×%d onto %d×%d", nw.m, nw.n, sh.w.m, sh.w.n)
	}
	if err := checkCells(cells, nw.m, nw.n); err != nil {
		return nil, err
	}
	ns := &Shard{
		w:       nw,
		version: nw.version,
		size:    sh.size,
		stripes: append([]Stripe(nil), sh.stripes...),
	}
	for s, patch := range deltaPatches(cells, sh.size) {
		ns.stripes[s] = patchStripe(&sh.stripes[s], patch)
	}
	return ns, nil
}

// ApplyDelta derives a patched span replica with the delta applied and the
// given snapshot version, sharing every untouched stripe with the receiver.
// Every cell must fall inside the span's consumer bounds — the coordinator
// cuts deltas per span before shipping them. The receiver is untouched, so
// in-flight requests against the old snapshot stay consistent.
func (sp *SpanStore) ApplyDelta(cells []Cell, version uint64) (*SpanStore, error) {
	if err := checkCells(cells, sp.consumers, sp.items); err != nil {
		return nil, err
	}
	lo, hi := sp.Bounds()
	for k, c := range cells {
		if c.Consumer < lo || c.Consumer >= hi {
			return nil, fmt.Errorf("wtp: delta cell %d consumer %d outside span [%d,%d)", k, c.Consumer, lo, hi)
		}
	}
	ns := &SpanStore{
		consumers:  sp.consumers,
		items:      sp.items,
		stripeSize: sp.stripeSize,
		version:    version,
		start:      sp.start,
		stripes:    append([]Stripe(nil), sp.stripes...),
	}
	for s, patch := range deltaPatches(cells, sp.stripeSize) {
		k := s - sp.start
		ns.stripes[k] = patchStripe(&sp.stripes[k], patch)
	}
	return ns, nil
}

// Package fim mines maximal frequent itemsets from transaction data.
//
// The paper's bundling baseline ("Frequently Bought Together", Sec. 6.1.3)
// treats each consumer as a transaction containing the items she has
// non-zero willingness to pay for, mines maximal frequent itemsets with
// MAFIA, and greedily assembles a bundle configuration from them. MAFIA is
// closed-source-era C++; this package re-implements its essence: a
// depth-first search over the itemset lattice with a vertical bitmap
// representation and parent-equivalence pruning (PEP). Maximal frequent
// itemsets are unique given data and minimum support, so the baseline sees
// the same candidate bundles MAFIA would produce.
//
// Maximality is checked against a vertical index of the recorded sets: each
// recorded set owns a slot, and each item a bitmap of the slots whose set
// holds it. A set Q is subsumed when some live slot lies in the bitmaps of
// all of Q's items: a word-wise AND that stops at the first non-zero word.
// The recorded subsets that a new maximal set M drops lie in the OR of the
// bitmaps of M's items; each such slot is confirmed by a 64-bit signature
// of its items and then item by item. Neither check walks the recorded sets
// one by one, nor every item's bitmap.
//
// The search allocates only what it returns. Transaction sets are bitmap
// words carved from one buffer per search depth, and the itemset under
// extension lives on one shared stack.
package fim

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
)

// Itemset is a mined itemset with its absolute support.
type Itemset struct {
	Items   []int // ascending item ids
	Support int   // number of transactions containing all items
}

// Config controls the miner.
type Config struct {
	// MinSupport is the absolute minimum transaction count. Values < 1 are
	// treated as 1.
	MinSupport int
	// MaxSize caps the itemset size (0 = unlimited). The bundling baseline
	// passes the bundle-size limit k here.
	MaxSize int
	// MaxResults stops the search after this many maximal itemsets
	// (0 = unlimited); a safety valve for dense data.
	MaxResults int
}

// MineMaximal returns all maximal frequent itemsets of the transactions.
// transactions[t] lists the item ids of transaction t (any order,
// duplicates ignored). items is the universe size.
func MineMaximal(items int, transactions [][]int, cfg Config) ([]Itemset, error) {
	if items < 0 {
		return nil, fmt.Errorf("fim: negative item universe %d", items)
	}
	if cfg.MinSupport < 1 {
		cfg.MinSupport = 1
	}
	tw := (len(transactions) + 63) / 64
	m := &miner{cfg: cfg, tw: tw}
	// Vertical representation: bitmap of transactions per item.
	m.tids = make([]uint64, items*tw)
	for t, tx := range transactions {
		for _, i := range tx {
			if i < 0 || i >= items {
				return nil, fmt.Errorf("fim: item %d outside universe [0,%d)", i, items)
			}
			m.tids[i*tw+t/64] |= 1 << (t % 64)
		}
	}
	// Frequent single items, ordered by ascending support (MAFIA's dynamic
	// reordering heuristic: rarest-first keeps subtrees small).
	var f1 []cand
	for i := 0; i < items; i++ {
		if s := popcount(m.tidset(i)); s >= cfg.MinSupport {
			f1 = append(f1, cand{item: i, sup: s})
		}
	}
	slices.SortFunc(f1, byRarity)
	m.index = &slotIndex{inM: make([]bool, items)}
	all := make([]uint64, tw)
	for t := range transactions {
		all[t/64] |= 1 << (t % 64)
	}
	// One frame per search depth; a path holds at most every frequent item.
	m.frames = make([]frame, len(f1)+1)
	m.dfs(0, all, len(transactions), f1)
	return m.index.results(), nil
}

// cand is an extension item of a search node with its support under the
// node's prefix; in a frame, its transaction set is
// buf[slot*tw:(slot+1)*tw].
type cand struct {
	item, sup, slot int
}

// byRarity orders candidates by ascending support, then item id.
func byRarity(a, b cand) int {
	if c := cmp.Compare(a.sup, b.sup); c != 0 {
		return c
	}
	return cmp.Compare(a.item, b.item)
}

// frame is one search depth's scratch: the node's surviving candidates and
// their transaction sets. Siblings at a depth reuse it, and a node's
// children read its candidates and sets while deeper frames are written.
type frame struct {
	cands []cand
	buf   []uint64
}

type miner struct {
	cfg     Config
	tw      int      // words per transaction set
	tids    []uint64 // item i's transaction set: tids[i*tw:(i+1)*tw]
	frames  []frame
	prefix  []int // the itemset under extension, shared by every depth
	index   *slotIndex
	stopped bool
}

func (m *miner) tidset(i int) []uint64 { return m.tids[i*m.tw : (i+1)*m.tw] }

// dfs explores extensions of the prefix, whose transaction set is tid with
// sup members, by the ordered candidate extension items ext.
func (m *miner) dfs(depth int, tid []uint64, sup int, ext []cand) {
	if m.stopped {
		return
	}
	if m.cfg.MaxSize > 0 && len(m.prefix) >= m.cfg.MaxSize {
		m.record(sup)
		return
	}
	base := len(m.prefix)
	defer func() { m.prefix = m.prefix[:base] }()
	// Compute supports of extensions; apply PEP: extensions whose tidset
	// equals the prefix tidset always co-occur, fold them into the prefix.
	f := &m.frames[depth]
	f.cands = f.cands[:0]
	tw := m.tw
	for _, e := range ext {
		off := len(f.cands) * tw
		if len(f.buf) < off+tw {
			f.buf = append(f.buf, make([]uint64, tw)...)
		}
		s := intersect(f.buf[off:off+tw], tid, m.tidset(e.item))
		if s < m.cfg.MinSupport {
			continue
		}
		if s == sup && m.cfg.MaxSize == 0 {
			// PEP: the item occurs in every prefix transaction, so every
			// maximal itemset extending the prefix contains it — fold it
			// in. Only sound without a size cap: under a cap, capped
			// subsets that avoid the item (e.g. {prefix, j}) can still be
			// maximal-within-cap and must be enumerated.
			m.prefix = append(m.prefix, e.item)
			continue
		}
		f.cands = append(f.cands, cand{item: e.item, sup: s, slot: len(f.cands)})
	}
	if len(f.cands) == 0 {
		if len(m.prefix) > 0 {
			m.record(sup)
		}
		return
	}
	slices.SortFunc(f.cands, byRarity)
	// HUTMFI-style pruning: if prefix ∪ all candidates is already subsumed
	// by a known maximal itemset, nothing new can be found below.
	if m.index.subsumed(m.prefix, f.cands) {
		return
	}
	for ci := range f.cands {
		c := f.cands[ci]
		m.prefix = append(m.prefix, c.item)
		m.dfs(depth+1, f.buf[c.slot*tw:(c.slot+1)*tw], c.sup, f.cands[ci+1:])
		m.prefix = m.prefix[:len(m.prefix)-1]
		if m.stopped {
			return
		}
	}
}

// record adds the prefix, of support sup, to the maximal collection unless
// a superset is already present; any recorded subsets of it are removed.
func (m *miner) record(sup int) {
	if m.index.subsumed(m.prefix, nil) {
		return
	}
	items := slices.Clone(m.prefix)
	slices.Sort(items)
	m.index.add(Itemset{Items: items, Support: sup})
	if m.cfg.MaxResults > 0 && m.index.live >= m.cfg.MaxResults {
		m.stopped = true
	}
}

// intersect writes a ∧ b into dst and returns its population count.
func intersect(dst, a, b []uint64) int {
	n := 0
	for k := range dst {
		x := a[k] & b[k]
		dst[k] = x
		n += bits.OnesCount64(x)
	}
	return n
}

func popcount(s []uint64) int {
	n := 0
	for _, x := range s {
		n += bits.OnesCount64(x)
	}
	return n
}

// slotIndex is the recorded maximal collection. Slot s holds the s-th
// recorded itemset; alive marks the slots not yet superseded, and cols holds
// one slot bitmap per item, marking the slots whose itemset contains the
// item. Slots keep arrival order and are compacted when the bitmaps fill
// and at the end, so the results come out in recording order.
type slotIndex struct {
	sets  []Itemset
	sigs  []uint64 // per slot, the bits i%64 of its set's items i
	live  int      // live slots
	alive []uint64 // live slot bitmap
	cols  []uint64 // item i's slot bitmap: cols[i*sw:(i+1)*sw]
	sw    int      // words per slot bitmap
	inM   []bool   // per item, scratch of add
}

// subsumed reports whether items ∪ cands ⊆ some live recorded itemset:
// whether a word of alive ∧ the items' bitmaps is non-zero.
func (x *slotIndex) subsumed(items []int, cands []cand) bool {
	nw := (len(x.sets) + 63) / 64
	for w := 0; w < nw; w++ {
		v := x.alive[w]
		for _, i := range items {
			if v == 0 {
				break
			}
			v &= x.cols[i*x.sw+w]
		}
		for _, c := range cands {
			if v == 0 {
				break
			}
			v &= x.cols[c.item*x.sw+w]
		}
		if v != 0 {
			return true
		}
	}
	return false
}

// add records a maximal itemset in a new slot and retires the live slots
// it subsumes. Only a slot in the bitmap of one of the new set's items can
// be one, and it is when every item of its set is in the new set.
func (x *slotIndex) add(is Itemset) {
	sig := signature(is.Items)
	for _, i := range is.Items {
		x.inM[i] = true
	}
	nw := (len(x.sets) + 63) / 64
	for w := 0; w < nw; w++ {
		var v uint64
		for _, i := range is.Items {
			v |= x.cols[i*x.sw+w]
		}
		for v &= x.alive[w]; v != 0; v &= v - 1 {
			b := bits.TrailingZeros64(v)
			if s := w*64 + b; x.sigs[s]&^sig == 0 && x.within(x.sets[s].Items) {
				x.alive[w] &^= 1 << b
				x.live--
			}
		}
	}
	for _, i := range is.Items {
		x.inM[i] = false
	}
	if len(x.sets) == x.sw*64 {
		x.makeRoom()
	}
	s := len(x.sets)
	x.sets = append(x.sets, is)
	x.sigs = append(x.sigs, sig)
	x.set(s, is.Items)
	x.live++
}

// signature folds item ids into 64 bits: a set whose signature has a bit
// outside another's holds an item outside it.
func signature(items []int) uint64 {
	var sig uint64
	for _, i := range items {
		sig |= 1 << (i % 64)
	}
	return sig
}

// within reports whether every item is marked in inM.
func (x *slotIndex) within(items []int) bool {
	for _, i := range items {
		if !x.inM[i] {
			return false
		}
	}
	return true
}

// set marks slot s live and in the bitmaps of items.
func (x *slotIndex) set(s int, items []int) {
	bit := uint64(1) << (s % 64)
	x.alive[s/64] |= bit
	for _, i := range items {
		x.cols[i*x.sw+s/64] |= bit
	}
}

// makeRoom frees slots when every slot is taken: it drops the retired
// slots and, unless they were at least half, doubles the bitmaps.
func (x *slotIndex) makeRoom() {
	if x.sw == 0 || x.live*2 > len(x.sets) {
		x.sw = max(1, 2*x.sw)
	}
	x.rebuild()
}

// rebuild renumbers the live slots densely, in slot order, into bitmaps of
// sw words.
func (x *slotIndex) rebuild() {
	kept := x.sets[:0]
	for s, is := range x.sets {
		if x.alive[s/64]&(1<<(s%64)) != 0 {
			x.sigs[len(kept)] = x.sigs[s]
			kept = append(kept, is)
		}
	}
	clear(x.sets[len(kept):])
	x.sets, x.sigs = kept, x.sigs[:len(kept)]
	if len(x.alive) != x.sw {
		x.cols = make([]uint64, x.sw*len(x.inM))
		x.alive = make([]uint64, x.sw)
	} else {
		clear(x.cols)
		clear(x.alive)
	}
	for s, is := range x.sets {
		x.set(s, is.Items)
	}
}

// results returns the live itemsets in recording order.
func (x *slotIndex) results() []Itemset {
	x.rebuild()
	return x.sets
}

// Support computes the absolute support of an itemset directly from
// transactions; used by tests as an independent oracle.
func Support(items []int, transactions [][]int) int {
	n := 0
	for _, tx := range transactions {
		have := make(map[int]bool, len(tx))
		for _, i := range tx {
			have[i] = true
		}
		ok := true
		for _, i := range items {
			if !have[i] {
				ok = false
				break
			}
		}
		if ok {
			n++
		}
	}
	return n
}

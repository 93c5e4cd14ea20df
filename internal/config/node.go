package config

import (
	"fmt"
	"sort"

	"bundling/internal/pricing"
)

// node is a bundle under construction inside the iterative algorithms. It
// caches the bundle's interested-consumer vector and pricing so merge
// evaluations do not rescan the WTP matrix for unchanged bundles.
//
// Under mixed bundling a node additionally carries per-consumer market
// state for its subtree of offers (the bundle itself plus every retained
// sub-bundle): pay[j] is consumer ids[j]'s total expected payment within
// the subtree, surp[j] the deterministic surplus of those purchases (the
// choice currency of the upgrade rule), cost[j] the expected variable cost
// of serving them and esur[j] the expected consumer surplus. Merge deltas
// are computed against this state — the paper's Table 6 accounting — which
// keeps every consumer counted exactly once and total revenue bounded by
// total willingness to pay.
type node struct {
	items []int     // ascending item ids
	ids   []int     // interested consumers, ascending
	vals  []float64 // bundle WTP per interested consumer (Eq. 1)
	quote pricing.Quote
	// uq is the standalone utility quote of a singleton prototype
	// (PriceUtility over the raw vector); the Components baseline reads it
	// directly, independent of the mixed-bundling state below.
	uq pricing.UtilityQuote
	// revenue, profit, surplus and util are the node subtree's expected
	// totals; util (= α·profit + (1-α)·surplus) is the currency every
	// merge gain is measured in. Under the paper's default objective
	// util == profit == revenue.
	revenue float64
	profit  float64
	surplus float64
	util    float64
	unitC   float64 // bundle unit cost (Σ item costs)
	// Mixed-bundling per-consumer state (nil under pure bundling):
	pay  []float64
	surp []float64
	cost []float64
	esur []float64
	// comps are the retained sub-bundles (mixed only), flattened over the
	// node's merge history; they form the X'_I output.
	comps []Bundle
	fresh bool // formed in the most recent iteration
	dead  bool // merged away (greedy bookkeeping)
}

// mergeScratch holds the reusable buffers one evaluation thread needs to
// price a candidate merge without allocating: the merged item list, the
// merged interested-consumer vector, and (mixed bundling) the combined
// per-consumer market state of the two parents. Candidates are priced
// entirely in the scratch; only an accepted merge is materialized into a
// node (engine.commit), so the O(N²) candidates that lose or are never
// taken cost zero heap churn.
type mergeScratch struct {
	items []int
	ids   []int
	vals  []float64
	pay   []float64
	surp  []float64
	cost  []float64
	esur  []float64
}

// grow returns buf resized to n, reusing capacity.
func grow(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// objective assembles the pricing objective for a bundle: the configured
// profit weight α and the bundle's summed unit cost.
func (e *engine) objective(items []int) pricing.Objective {
	obj := pricing.Objective{ProfitWeight: e.params.ProfitWeight}
	if e.params.UnitCosts != nil {
		for _, i := range items {
			obj.UnitCost += e.params.UnitCosts[i]
		}
	}
	return obj
}

// initState populates a node's per-consumer market state from its
// standalone quote: each consumer's expected payment at the node's price,
// the deterministic surplus of buying it, and the cost/surplus expectations.
func (e *engine) initState(n *node) {
	n.pay = make([]float64, len(n.ids))
	n.surp = make([]float64, len(n.ids))
	n.cost = make([]float64, len(n.ids))
	n.esur = make([]float64, len(n.ids))
	model := e.params.Model
	alpha := model.Alpha()
	var pay, cost, sur float64
	for j, w := range n.vals {
		p := model.Probability(n.quote.Price, w)
		n.pay[j] = n.quote.Price * p
		n.cost[j] = n.unitC * p
		if s := alpha*w - n.quote.Price; s > 0 && p > 0 {
			n.surp[j] = s
			n.esur[j] = s * p
		}
		pay += n.pay[j]
		cost += n.cost[j]
		sur += n.esur[j]
	}
	e.setTotals(n, pay, cost, sur)
}

// settle commits a mixed-bundling node's per-consumer market state after
// its bundle went on sale at price pb over the current state (curPay,
// curSurp, curCost, curESur, aligned with n.ids): every consumer re-resolves
// the switch rule PriceMixed priced with. An infeasible offer (feasible
// false) is not on sale, so every consumer keeps their current state.
func (e *engine) settle(n *node, curPay, curSurp, curCost, curESur []float64, pb float64, feasible bool) {
	n.pay = make([]float64, len(n.ids))
	n.surp = make([]float64, len(n.ids))
	n.cost = make([]float64, len(n.ids))
	n.esur = make([]float64, len(n.ids))
	alpha := e.params.Model.Alpha()
	var pay, cost, sur float64
	for j := range n.ids {
		pj, prob, switched := curPay[j], 0.0, false
		if feasible {
			pj, prob, switched = e.pr.ResolveSwitch(n.vals[j], curPay[j], curSurp[j], pb)
		}
		n.pay[j] = pj
		if switched {
			n.cost[j] = n.unitC * prob
			if s := alpha*n.vals[j] - pb; s > 0 {
				n.surp[j] = s
				n.esur[j] = s * prob
			}
		} else {
			n.surp[j] = curSurp[j]
			n.cost[j] = curCost[j]
			n.esur[j] = curESur[j]
		}
		pay += pj
		cost += n.cost[j]
		sur += n.esur[j]
	}
	e.setTotals(n, pay, cost, sur)
}

// setTotals records a node's expected revenue, profit, consumer surplus
// and seller utility from its summed payments, costs and surpluses.
func (e *engine) setTotals(n *node, pay, cost, sur float64) {
	n.revenue = pay
	n.profit = pay - cost
	n.surplus = sur
	n.util = e.params.ProfitWeight*n.profit + (1-e.params.ProfitWeight)*n.surplus
}

// mergeable applies the size cap and the paper's common-interest pruning.
// The pruning is valid only for θ ≤ 0: with independent or substitute
// items, no consumer interested in just one side ever yields extra bundle
// revenue; with complements (θ > 0) a bundle can profit even without a
// common consumer, so the filter is skipped.
func (e *engine) mergeable(a, b *node) bool {
	if len(a.items)+len(b.items) > e.k {
		return false
	}
	if e.params.Theta > 0 || e.params.DisablePruning {
		return true
	}
	return idsIntersect(a.ids, b.ids)
}

// vectorScale returns the factor that lifts a parent node's cached vals to
// the merged bundle's Eq. 1 terms. A multi-item parent's vector already
// carries the (1+θ) adjustment; a singleton's vector is raw (θ never
// applies to one item), so it picks the adjustment up here.
func (e *engine) vectorScale(n *node) float64 {
	if len(n.items) == 1 {
		return 1 + e.params.Theta
	}
	return 1
}

// evalMerge prices the merge of a and b in the run's serial context; see
// evalMergeWith.
func (e *engine) evalMerge(a, b *node, keepAll bool) (pricing.UtilityQuote, float64, bool) {
	return e.evalMergeWith(e.ctx, a, b, keepAll)
}

// evalMergeWith prices the merge of a and b with an explicit worker
// context, so concurrent evaluations each own their scratch (the shared
// Pricer is stateless). It returns the candidate's quote and its utility
// gain over keeping a and b as they are; ok is false when the merge is
// infeasible or (unless keepAll, for the greedy run-to-end variant that
// needs non-gaining candidates too) not gaining. The candidate is priced
// entirely in scratch and nothing is allocated; commit materializes the
// merged node once the algorithm accepts the merge. Under mixed bundling
// the combined state of a and b is left in the scratch for commit.
//
// The quote is the standalone UtilityQuote under pure bundling. Under mixed
// bundling only its Quote part is set: the bundle price, the revenue the
// bundle adds over its components, and its expected adopters.
func (e *engine) evalMergeWith(ctx *workerCtx, a, b *node, keepAll bool) (q pricing.UtilityQuote, gain float64, ok bool) {
	sc := ctx.sc
	e.mergeVector(sc, a, b)
	obj := e.objective(sc.items)
	if e.params.Strategy == Pure {
		uq := e.pr.PriceUtilityIn(ctx.psc, sc.vals, obj)
		gain := uq.Utility - a.util - b.util
		return uq, gain, keepAll || gain > minGain
	}
	// Mixed: price the new bundle against the combined current state of
	// both subtrees (their offers are item-disjoint, so states add), within
	// the paper's price window (max component price, sum of component
	// prices).
	combineState(sc, a, b)
	lo := a.quote.Price
	if b.quote.Price > lo {
		lo = b.quote.Price
	}
	mq := e.pr.PriceMixedIn(ctx.psc, pricing.MixedOffer{
		CurPay:      sc.pay,
		CurSurplus:  sc.surp,
		CurCost:     sc.cost,
		CurESurplus: sc.esur,
		WB:          sc.vals,
		Lo:          lo,
		Hi:          a.quote.Price + b.quote.Price,
		BundleCost:  obj.UnitCost,
		Obj:         pricing.Objective{ProfitWeight: e.params.ProfitWeight, UnitCost: obj.UnitCost},
	})
	delta := mq.Utility - mq.BaselineUtility
	if !mq.Feasible || delta <= minGain {
		return pricing.UtilityQuote{}, 0, false
	}
	return pricing.UtilityQuote{Quote: pricing.Quote{Price: mq.Price, Revenue: mq.Revenue - mq.Baseline, Adopters: mq.Adopters}}, delta, true
}

// commit materializes the accepted merge of a and b. It prices the merge
// again in the run's serial scratch, which is deterministic and so yields
// exactly the quote the candidate was accepted with, and builds the node
// from the scratch: the merged vector, and under mixed bundling the state
// of every consumer settled at the quoted price. Re-pricing one accepted
// merge costs as much as one candidate; carrying each candidate's quote
// instead would enlarge every candidate record.
func (e *engine) commit(a, b *node) *node {
	sc := e.ctx.sc
	q, _, _ := e.evalMergeWith(e.ctx, a, b, true)
	n := materialize(sc)
	n.unitC = e.objective(n.items).UnitCost
	n.quote = q.Quote
	if e.params.Strategy == Pure {
		n.revenue, n.profit, n.surplus, n.util = q.Revenue, q.Profit, q.Surplus, q.Utility
		return n
	}
	e.settle(n, sc.pay, sc.surp, sc.cost, sc.esur, q.Price, true)
	n.comps = append(n.comps, a.comps...)
	n.comps = append(n.comps, b.comps...)
	n.comps = append(n.comps, a.asBundle(), b.asBundle())
	return n
}

// mergeVector builds the merged item list and interested-consumer vector of
// a and b in sc.
func (e *engine) mergeVector(sc *mergeScratch, a, b *node) {
	sc.items = mergeItemsInto(sc.items, a.items, b.items)
	if e.incremental {
		sc.ids, sc.vals = e.exec.UnionVectors(e.reqCtx, a.ids, a.vals, e.vectorScale(a), b.ids, b.vals, e.vectorScale(b), sc.ids, sc.vals)
	} else {
		sc.ids, sc.vals = e.w.BundleVector(sc.items, e.params.Theta, sc.ids, sc.vals)
	}
}

// combineState adds the per-consumer market states of a and b onto the
// merged consumer axis sc.ids, in one pass directly from both parents'
// aligned vectors into the scratch buffers.
func combineState(sc *mergeScratch, a, b *node) {
	m := len(sc.ids)
	sc.pay = grow(sc.pay, m)
	sc.surp = grow(sc.surp, m)
	sc.cost = grow(sc.cost, m)
	sc.esur = grow(sc.esur, m)
	ja, jb := 0, 0
	for j, id := range sc.ids {
		var p0, s0, c0, e0 float64
		if ja < len(a.ids) && a.ids[ja] == id {
			p0, s0, c0, e0 = a.pay[ja], a.surp[ja], a.cost[ja], a.esur[ja]
			ja++
		}
		if jb < len(b.ids) && b.ids[jb] == id {
			p0 += b.pay[jb]
			s0 += b.surp[jb]
			c0 += b.cost[jb]
			e0 += b.esur[jb]
			jb++
		}
		sc.pay[j], sc.surp[j], sc.cost[j], sc.esur[j] = p0, s0, c0, e0
	}
}

// materialize copies the scratch candidate into a fresh node; the
// strategy-specific pricing state is filled in by the caller.
func materialize(sc *mergeScratch) *node {
	return &node{
		items: append([]int(nil), sc.items...),
		ids:   append([]int(nil), sc.ids...),
		vals:  append([]float64(nil), sc.vals...),
		fresh: true,
	}
}

// asBundle converts a node to its output Bundle form. For a mixed-bundling
// merge node, Revenue is the incremental revenue the bundle added over its
// components (the paper's "Add. revenue" column).
func (n *node) asBundle() Bundle {
	return Bundle{Items: append([]int(nil), n.items...), Price: n.quote.Price, Revenue: n.quote.Revenue}
}

// finish assembles the Configuration from surviving nodes.
func (e *engine) finish(nodes []*node, iterations int, trace []IterationStat) *Configuration {
	cfg := &Configuration{Strategy: e.params.Strategy, Iterations: iterations, Trace: trace}
	for _, n := range nodes {
		if n.dead {
			continue
		}
		cfg.Bundles = append(cfg.Bundles, n.asBundle())
		cfg.Components = append(cfg.Components, n.comps...)
		cfg.Revenue += n.revenue
		cfg.Profit += n.profit
		cfg.Surplus += n.surplus
		cfg.Utility += n.util
	}
	sort.Slice(cfg.Bundles, func(i, j int) bool { return cfg.Bundles[i].Items[0] < cfg.Bundles[j].Items[0] })
	return cfg
}

func errCostCount(got, want int) error {
	return fmt.Errorf("config: %d unit costs for %d items", got, want)
}

// mergeItemsInto unions two ascending item lists into dst, reusing its
// capacity.
func mergeItemsInto(dst, a, b []int) []int {
	out := dst[:0]
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// idsIntersect reports whether two ascending id lists share an element.
func idsIntersect(a, b []int) bool {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			return true
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return false
}

// alignVals scatters (srcIDs, srcVals) onto the consumer axis given by
// unionIDs (ascending, a superset of srcIDs), filling gaps with zero.
func alignVals(unionIDs, srcIDs []int, srcVals []float64) []float64 {
	out := make([]float64, len(unionIDs))
	j := 0
	for i, id := range unionIDs {
		if j < len(srcIDs) && srcIDs[j] == id {
			out[i] = srcVals[j]
			j++
		}
	}
	return out
}

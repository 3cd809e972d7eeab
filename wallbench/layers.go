package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// reconcileTol is the stated tolerance of the per-op reconciliation:
// the layers' wall-clock self times must account for the op's
// stopwatch wall time to within this share of it. What they leave
// uncovered is the benchmark's own glue between layer calls.
const reconcileTol = 0.02

// attribution is the op-time priority of each layer when spans on
// different goroutines overlap: an instant belongs to the innermost
// layer active on any thread. Witness search runs outside op time and
// is not attributed.
var attribution = [len(layerNames)]int{layerParser: 1, layerCore: 1, layerStore: 2, layerPunch: 3, layerSummary: 4}

// layerTotals accumulates the traced phase's per-layer measurements.
type layerTotals struct {
	ops                int
	runNs, coreSelfNs  int64
	idleNs, threadRun  int64
	punchBusyNs        int64
	punchSelfNs        int64
	punchCalls, done   int64
	punchCost          int64
	sumCalls, sumNs    int64
	answers, answerHit int64
	adds               int64
	storeCalls         int64
	storeNs, openNs    int64
	storeErrs          int64
	parserCalls        int64
	parserNs           int64
	witnessCalls       int64
	witnessNs          int64
	worstGap           float64 // largest unattributed share of an op's wall
	selfNs             [len(layerNames)]int64
}

// opSpans groups a traced run's spans by op.
func opSpans(spans []span) map[int64][]span {
	by := map[int64][]span{}
	for _, s := range spans {
		by[s.op] = append(by[s.op], s)
	}
	return by
}

// addOp folds one op's spans into the totals. wallNs is the op's
// stopwatch wall time. It returns an error for a span set that breaks
// the trace's own invariants.
func (t *layerTotals) addOp(spans []span, wallNs int64) error {
	t.ops++
	var root *span
	var runs []span
	children := map[int64][]span{} // by parent id
	for i := range spans {
		s := &spans[i]
		if s.dur() < 0 {
			return fmt.Errorf("span %s has negative duration", s.name)
		}
		children[s.parent] = append(children[s.parent], *s)
		switch s.layer {
		case layerOp:
			root = s
		case layerCore:
			runs = append(runs, *s)
		case layerPunch:
			t.punchCalls++
			t.punchBusyNs += s.dur()
			t.punchCost += s.n
			if s.ok {
				t.done++
			}
		case layerSummary:
			t.sumCalls++
			t.sumNs += s.dur()
			switch s.name {
			case "summary.Add":
				t.adds++
			case "summary.Answer", "summary.AnswerYes", "summary.AnswerNo":
				t.answers++
				if s.ok {
					t.answerHit++
				}
			}
		case layerStore:
			t.storeCalls++
			t.storeNs += s.dur()
			if s.name == "store.Open" {
				t.openNs += s.dur()
			}
			if !s.ok {
				t.storeErrs++
			}
		case layerParser:
			t.parserCalls++
			t.parserNs += s.dur()
		case layerWitness:
			t.witnessCalls++
			t.witnessNs += s.dur()
		}
	}
	if root == nil {
		return fmt.Errorf("op without a root span")
	}
	for _, p := range spans {
		if p.layer != layerPunch {
			continue
		}
		self := p.dur()
		for _, c := range children[p.id] {
			self -= c.dur()
		}
		if self < 0 {
			return fmt.Errorf("punch span %d: self time %d ns < 0", p.id, self)
		}
		t.punchSelfNs += self
	}
	for _, r := range runs {
		var busy int64
		var kids []span
		for _, c := range children[r.id] {
			kids = append(kids, c)
			if c.layer == layerPunch {
				busy += c.dur()
			}
		}
		self := r.dur() - covered(kids, r.start, r.end)
		if self < 0 {
			return fmt.Errorf("core span %d: self time %d ns < 0", r.id, self)
		}
		t.runNs += r.dur()
		t.coreSelfNs += self
		t.threadRun += threads * r.dur()
		t.idleNs += threads*r.dur() - busy
	}

	// Reconcile: partition the op's interval by the innermost active
	// layer and compare the parts with the stopwatch.
	var inOp []span
	for _, s := range spans {
		if s.layer != layerOp && s.layer != layerWitness {
			if s.start < root.start || s.end > root.end {
				return fmt.Errorf("%s span [%d,%d] outside its op [%d,%d]", s.name, s.start, s.end, root.start, root.end)
			}
			inOp = append(inOp, s)
		}
	}
	self := partition(inOp)
	var sum int64
	for l, ns := range self {
		t.selfNs[l] += ns
		sum += ns
	}
	gap := float64(wallNs-sum) / float64(wallNs)
	if gap < 0 || gap > reconcileTol {
		return fmt.Errorf("layer self times sum to %d ns of an op wall of %d ns (gap %.2f%%, tolerance %.0f%%)", sum, wallNs, 100*gap, 100*reconcileTol)
	}
	t.worstGap = math.Max(t.worstGap, gap)
	return nil
}

// covered is the length of [lo,hi] covered by the union of spans.
func covered(spans []span, lo, hi int64) int64 {
	iv := make([][2]int64, 0, len(spans))
	for _, s := range spans {
		iv = append(iv, [2]int64{max(s.start, lo), min(s.end, hi)})
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	open := false
	for _, v := range iv {
		if v[1] <= v[0] {
			continue
		}
		if !open || v[0] > curHi {
			if open {
				total += curHi - curLo
			}
			curLo, curHi, open = v[0], v[1], true
			continue
		}
		curHi = max(curHi, v[1])
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// partition splits the time covered by spans among layers: every
// instant goes to the highest-priority layer active at it.
func partition(spans []span) [len(layerNames)]int64 {
	type edge struct {
		at    int64
		l     layer
		delta int
	}
	edges := make([]edge, 0, 2*len(spans))
	for _, s := range spans {
		edges = append(edges, edge{s.start, s.layer, +1}, edge{s.end, s.layer, -1})
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i].at < edges[j].at })
	var active [len(layerNames)]int
	var out [len(layerNames)]int64
	for i, e := range edges {
		if i > 0 {
			if top, ok := innermost(active); ok {
				out[top] += e.at - edges[i-1].at
			}
		}
		active[e.l] += e.delta
	}
	return out
}

func innermost(active [len(layerNames)]int) (layer, bool) {
	best, found := layerOp, false
	for l, n := range active {
		if n > 0 && (!found || attribution[l] > attribution[best]) {
			best, found = layer(l), true
		}
	}
	return best, found
}

// runCounts are the per-op engine and store counters the traced phase
// sums; they come from core.Result, not from spans.
type runCounts struct {
	queries, steals, peakLive      int64
	satCalls, theoryChecks         int64
	entailHits, entailMisses       int64
	dpllConflicts, coalesceHits    int64
	loaded, persisted              int64
	edited, invalidated, surviving int64
	reused                         int64
	storeErrs                      int64
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

func secs(ns int64) float64 { return float64(ns) / 1e9 }

// layerMetrics renders the traced phase as the per-layer metrics.
func layerMetrics(t *layerTotals, c runCounts, hits0, misses0, hits1, misses1, storeBytes int64, overhead float64) map[string]metric {
	m := map[string]metric{
		"core.run_s":               {secs(t.runNs), "s"},
		"core.self_s":              {secs(t.coreSelfNs), "s"},
		"core.idle_s":              {secs(t.idleNs), "s"},
		"core.worker_util":         {ratio(t.punchBusyNs, t.threadRun), "ratio"},
		"core.queries":             {float64(c.queries), "count"},
		"core.peak_live":           {float64(c.peakLive), "count"},
		"core.steals":              {float64(c.steals), "count"},
		"punch.calls":              {float64(t.punchCalls), "count"},
		"punch.busy_s":             {secs(t.punchBusyNs), "s"},
		"punch.self_s":             {secs(t.punchSelfNs), "s"},
		"punch.done_ratio":         {ratio(t.done, t.punchCalls), "ratio"},
		"punch.cost":               {float64(t.punchCost), "count"},
		"summary.calls":            {float64(t.sumCalls), "count"},
		"summary.busy_s":           {secs(t.sumNs), "s"},
		"summary.adds":             {float64(t.adds), "count"},
		"summary.answer_hit_ratio": {ratio(t.answerHit, t.answers), "ratio"},
		"smt.sat_calls":            {float64(c.satCalls), "count"},
		"smt.theory_checks":        {float64(c.theoryChecks), "count"},
		"smt.entail_hit_ratio":     {ratio(c.entailHits, c.entailHits+c.entailMisses), "ratio"},
		"smt.dpll_conflicts":       {float64(c.dpllConflicts), "count"},
		"logic.intern_ids":         {float64(misses1), "count"},
		"logic.intern_hit_ratio":   {ratio(hits1-hits0, hits1-hits0+misses1-misses0), "ratio"},
		"query.coalesce_hits":      {float64(c.coalesceHits), "count"},
		"store.calls":              {float64(t.storeCalls), "count"},
		"store.busy_s":             {secs(t.storeNs), "s"},
		"store.open_s":             {secs(t.openNs), "s"},
		"store.errors":             {float64(t.storeErrs + c.storeErrs), "count"},
		"store.bytes":              {float64(storeBytes), "bytes"},
		"store.loaded":             {float64(c.loaded), "count"},
		"store.persisted":          {float64(c.persisted), "count"},
		"incr.edited":              {float64(c.edited), "count"},
		"incr.invalidated":         {float64(c.invalidated), "count"},
		"incr.surviving_ratio":     {ratio(c.surviving, c.surviving+c.invalidated), "ratio"},
		"incr.reused_ratio":        {ratio(c.reused, int64(t.ops)), "ratio"},
		"parser.calls":             {float64(t.parserCalls), "count"},
		"parser.busy_s":            {secs(t.parserNs), "s"},
		"witness.calls":            {float64(t.witnessCalls), "count"},
		"witness.busy_s":           {secs(t.witnessNs), "s"},
		"trace.overhead_frac":      {overhead, "ratio"},
	}
	return m
}

// refuse rejects per-layer numbers that cannot be true: utilisation
// above one, a negative self time, store and incremental traffic on a
// workload that never opens a store, and none on one that re-checks
// edits.
func refuse(m map[string]metric, usesStore bool) []string {
	var bad []string
	if u := m["core.worker_util"].Value; u > 1 {
		bad = append(bad, fmt.Sprintf("core.worker_util %.4f > 1", u))
	}
	if usesStore && m["incr.edited"].Value == 0 {
		bad = append(bad, "incr.edited is 0 on a workload of edits")
	}
	for name, v := range m {
		if strings.HasSuffix(name, ".self_s") && v.Value < 0 {
			bad = append(bad, fmt.Sprintf("%s %.6f < 0", name, v.Value))
		}
		if !usesStore && (strings.HasPrefix(name, "store.") || strings.HasPrefix(name, "incr.")) && v.Value != 0 {
			bad = append(bad, fmt.Sprintf("%s is %g on a workload without a store", name, v.Value))
		}
	}
	sort.Strings(bad)
	return bad
}

// Package maymust instantiates PUNCH with a may-must analysis in the
// style of SYNERGY/DASH (§4 of the paper): an over-approximating region
// graph (may-map Σ plus eliminated abstract edges Ē) is refined by
// preimage splitting, while an under-approximating must-map O of symbolic
// execution states grows toward the error region. Frontiers — abstract
// edges reached but not yet taken by the must side — drive both
// refinement and the creation of child sub-queries at call edges.
package maymust

import (
	"fmt"

	"repro/internal/cfg"
	"repro/internal/lang"
	"repro/internal/logic"
	"repro/internal/query"
	"repro/internal/summary"
)

// region is one member of a node's partition Σ_n. Region identities are
// retired on split: the two halves get fresh IDs, which keeps all
// ID-keyed caches naturally invalidated.
type region struct {
	id   int
	node cfg.NodeID
	f    logic.Formula
	// target marks regions descending from the initial φ2-region at exit.
	target bool
	// entry caches, for an entry region, whether f ∧ φ1 may be
	// satisfiable: 0 unchecked, +1 open, -1 shut. Neither f nor the
	// query's φ1 changes over the region's life.
	entry int8
}

// regSet is a set of region IDs backed by a slice indexed by ID. Region
// IDs are dense (obj.regCount), and bumping the generation empties the
// set in O(1): an ID is a member when its stamp equals the generation.
type regSet struct {
	gen   uint32
	stamp []uint32
}

// reset empties the set and sizes it for IDs below n.
func (s *regSet) reset(n int) {
	if n > len(s.stamp) {
		s.stamp = append(s.stamp, make([]uint32, n-len(s.stamp))...)
	}
	s.gen++
	if s.gen == 0 { // wrapped: old stamps could alias the new generation
		clear(s.stamp)
		s.gen = 1
	}
}

func (s *regSet) has(id int) bool { return s.stamp[id] == s.gen }
func (s *regSet) add(id int)      { s.stamp[id] = s.gen }

// edgeKey identifies an abstract edge: a CFG edge index together with the
// source and destination region IDs.
type edgeKey struct {
	edge     int
	from, to int
}

// mustElem is one element of the must-map O: a symbolic execution state
// (path condition over symbols, store mapping program variables to linear
// terms over symbols). The set of concrete states it denotes at its node
// is { σ(v) : v ⊨ path }, an under-approximation of the reachable states.
type mustElem struct {
	path  logic.Formula
	store map[lang.Var]logic.Lin
	// reach caches region-membership checks: region ID → +1 / -1.
	reach map[int]int8
	// exitChecked marks exit elements already tested against φ2.
	exitChecked bool
}

// pendingChild records an outstanding sub-query for a call-edge frontier.
type pendingChild struct {
	id int64 // query ID (for bookkeeping/debugging)
	q  summary.Question
}

// obj is the verification object O_i stored in the query between PUNCH
// invocations: the complete saved state of the intraprocedural analysis.
type obj struct {
	proc    *cfg.Proc
	globals []lang.Var
	locals  []lang.Var

	// May side.
	regCount int
	regAt    map[cfg.NodeID][]*region
	elim     map[edgeKey]bool
	open     map[edgeKey]int8 // one-step feasibility cache: +1 open, -1 shut

	// Must side.
	musts    map[cfg.NodeID][]*mustElem
	mustKeys map[cfg.NodeID]map[string]bool
	symCount int
	initSyms map[lang.Var]lang.Var // initial symbol of each variable

	// Call-frontier bookkeeping.
	pending  map[edgeKey]pendingChild
	attempts map[edgeKey]int
	stuck    map[edgeKey]bool

	// pointPre caches whether a must summary's precondition denotes a
	// single state (keyed by summary string).
	pointPre map[string]int8

	// Region-search scratch reused across findPath and reachableRegions
	// calls: forward and backward visited sets, findPath's BFS parents
	// (indexed by region ID, valid for visited IDs) and the BFS queue.
	fwd, bwd regSet
	parent   []pathStep
	queue    []*region

	initialized bool
}

func newObj(proc *cfg.Proc, globals []lang.Var) *obj {
	return &obj{
		proc:     proc,
		globals:  globals,
		locals:   proc.Locals,
		regAt:    map[cfg.NodeID][]*region{},
		elim:     map[edgeKey]bool{},
		open:     map[edgeKey]int8{},
		musts:    map[cfg.NodeID][]*mustElem{},
		mustKeys: map[cfg.NodeID]map[string]bool{},
		initSyms: map[lang.Var]lang.Var{},
		pending:  map[edgeKey]pendingChild{},
		attempts: map[edgeKey]int{},
		stuck:    map[edgeKey]bool{},
		pointPre: map[string]int8{},
	}
}

// newRegion mints a region without attaching it to the node partition;
// attach it explicitly or via replaceRegion.
func (o *obj) newRegion(node cfg.NodeID, f logic.Formula, target bool) *region {
	r := &region{id: o.regCount, node: node, f: f, target: target}
	o.regCount++
	return r
}

// attach adds a minted region to its node's partition.
func (o *obj) attach(r *region) { o.regAt[r.node] = append(o.regAt[r.node], r) }

// freshSym mints a fresh symbolic variable for program variable v of query
// qid. The "$" prefix cannot appear in parsed programs, so symbols never
// collide with program variables.
func (o *obj) freshSym(qid query.ID, v lang.Var) lang.Var {
	s := lang.Var(fmt.Sprintf("$%d_%d_%s", qid, o.symCount, v))
	o.symCount++
	return s
}

// replaceRegion swaps r for the given parts in the node partition and
// migrates ID-keyed bookkeeping (eliminations, pending children, stuck
// marks, attempt counts) to every part, which is sound because each part
// denotes a subset of r.
func (o *obj) replaceRegion(r *region, parts ...*region) {
	regs := o.regAt[r.node]
	out := regs[:0]
	for _, x := range regs {
		if x.id != r.id {
			out = append(out, x)
		}
	}
	o.regAt[r.node] = append(out, parts...)

	partIDs := make([]int, len(parts))
	for i, p := range parts {
		partIDs[i] = p.id
	}
	migrate := func(old edgeKey) []edgeKey {
		if old.from != r.id && old.to != r.id {
			return nil
		}
		froms := []int{old.from}
		if old.from == r.id {
			froms = partIDs
		}
		tos := []int{old.to}
		if old.to == r.id {
			tos = partIDs
		}
		var ks []edgeKey
		for _, f := range froms {
			for _, t := range tos {
				ks = append(ks, edgeKey{old.edge, f, t})
			}
		}
		return ks
	}
	// Elimination and stuck marks are only looked up for attached
	// regions, so once r is retired its own keys are dead: drop them, or
	// every later split rescans them.
	for _, m := range []map[edgeKey]bool{o.elim, o.stuck} {
		var add []edgeKey
		for k, v := range m {
			if k.from != r.id && k.to != r.id {
				continue
			}
			delete(m, k)
			if v {
				add = append(add, migrate(k)...)
			}
		}
		for _, k := range add {
			m[k] = true
		}
	}
	{
		type kv struct {
			k edgeKey
			v pendingChild
		}
		var add []kv
		for k, v := range o.pending {
			for _, nk := range migrate(k) {
				add = append(add, kv{nk, v})
			}
		}
		for _, e := range add {
			o.pending[e.k] = e.v
		}
	}
	{
		type kv struct {
			k edgeKey
			v int
		}
		var add []kv
		for k, v := range o.attempts {
			for _, nk := range migrate(k) {
				add = append(add, kv{nk, v})
			}
		}
		for _, e := range add {
			o.attempts[e.k] = e.v
		}
	}
}

// addMust appends a must element at node, respecting the per-node cap and
// skipping structural duplicates.
func (o *obj) addMust(node cfg.NodeID, e *mustElem, cap int) bool {
	if len(o.musts[node]) >= cap {
		return false
	}
	key := e.key(o)
	if o.mustKeys[node] == nil {
		o.mustKeys[node] = map[string]bool{}
	}
	if o.mustKeys[node][key] {
		return false
	}
	o.mustKeys[node][key] = true
	e.reach = map[int]int8{}
	o.musts[node] = append(o.musts[node], e)
	return true
}

// key renders the element structurally for deduplication.
func (e *mustElem) key(o *obj) string {
	s := e.path.String()
	for _, v := range o.globals {
		s += "|" + string(v) + "=" + e.store[v].String()
	}
	for _, v := range o.locals {
		s += "|" + string(v) + "=" + e.store[v].String()
	}
	return s
}

func cloneStore(s map[lang.Var]logic.Lin) map[lang.Var]logic.Lin {
	out := make(map[lang.Var]logic.Lin, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

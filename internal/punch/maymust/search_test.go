package maymust

import (
	"testing"

	"repro/internal/cfg"
	"repro/internal/logic"
	"repro/internal/parser"
	"repro/internal/punch"
	"repro/internal/query"
	"repro/internal/smt"
	"repro/internal/summary"
)

// refFindPath is the reference for findPath: the same breadth-first
// search with a fresh visited map and parent map per call.
func refFindPath(st *stepper, avoid bool) []pathStep {
	o, q := st.o, st.q
	parent := map[int]pathStep{}
	seen := map[int]bool{}
	var queue []*region
	for _, r := range o.regAt[o.proc.Entry] {
		s := st.sat(logic.Conj(r.f, q.Q.Pre))
		if s.Known && !s.Sat {
			continue
		}
		seen[r.id] = true
		queue = append(queue, r)
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if cur.target && cur.node == o.proc.Exit {
			var rev []pathStep
			for at := cur.id; ; {
				stp, ok := parent[at]
				if !ok {
					break
				}
				rev = append(rev, stp)
				at = stp.from.id
			}
			out := make([]pathStep, len(rev))
			for i := range rev {
				out[i] = rev[len(rev)-1-i]
			}
			return out
		}
		for _, ei := range o.proc.Out[cur.node] {
			e := o.proc.Edges[ei]
			for _, r2 := range o.regAt[e.To] {
				k := edgeKey{ei, cur.id, r2.id}
				if seen[r2.id] || o.elim[k] {
					continue
				}
				if avoid && (o.stuck[k] || hasPending(o, k)) {
					continue
				}
				if !st.edgeOpen(k, e, cur, r2) {
					continue
				}
				seen[r2.id] = true
				parent[r2.id] = pathStep{ei, cur, r2}
				queue = append(queue, r2)
			}
		}
	}
	return nil
}

// refReachable is the reference for reachableRegions, with a fresh
// visited map per call.
func refReachable(st *stepper, reverse bool) map[int]bool {
	o := st.o
	seen := map[int]bool{}
	var queue []*region
	for _, r := range o.regAt[o.proc.Exit] {
		if reverse && r.target {
			seen[r.id] = true
			queue = append(queue, r)
		}
	}
	for _, r := range o.regAt[o.proc.Entry] {
		if s := st.sat(logic.Conj(r.f, st.q.Q.Pre)); !reverse && !(s.Known && !s.Sat) {
			seen[r.id] = true
			queue = append(queue, r)
		}
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		edges, other := o.proc.Out[cur.node], func(e cfg.Edge) cfg.NodeID { return e.To }
		if reverse {
			edges, other = o.proc.In[cur.node], func(e cfg.Edge) cfg.NodeID { return e.From }
		}
		for _, ei := range edges {
			e := o.proc.Edges[ei]
			for _, r2 := range o.regAt[other(e)] {
				k := edgeKey{ei, cur.id, r2.id}
				from, to := cur, r2
				if reverse {
					k = edgeKey{ei, r2.id, cur.id}
					from, to = r2, cur
				}
				if seen[r2.id] || o.elim[k] || !st.edgeOpen(k, e, from, to) {
					continue
				}
				seen[r2.id] = true
				queue = append(queue, r2)
			}
		}
	}
	return seen
}

func samePath(a, b []pathStep) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].edge != b[i].edge || a[i].from.id != b[i].from.id || a[i].to.id != b[i].to.id {
			return false
		}
	}
	return true
}

// TestRegionSearchScratchAcrossSplits drives refinement on a program
// whose proof needs many region splits, and after every frontier step
// checks that the searches over the obj's reused scratch agree with
// map-based searches: the same path, edge for edge and region for region,
// and the same reachable sets, while regions split and regCount grows.
func TestRegionSearchScratchAcrossSplits(t *testing.T) {
	prog := parserMust(t, `
globals x, y;
proc main {
  x = 0; y = 0;
  while (x < 6) { x = x + 1; y = y + 2; }
  if (y > 12) { assert(x < 0); }
  assert(y == 2 * x);
}
`)
	solver := smt.New()
	ctx := &punch.Context{Prog: prog, DB: summary.New(solver), Alloc: &query.Allocator{}, ModRef: prog.ModRef()}
	post := logic.LEq(logic.LinConst(1), logic.LinVar(parser.ErrVar))
	q := ctx.Alloc.New(query.NoParent, summary.Question{Proc: prog.Main, Pre: logic.True, Post: post})
	st := &stepper{a: New(), ctx: ctx, q: q, o: newObj(prog.MainProc(), prog.Globals), solver: solver}
	if done, _ := st.initialize(); done {
		t.Fatal("query decided at initialization")
	}
	initial := st.o.regCount
	steps := 0
	for ; steps < 200; steps++ {
		for _, avoid := range []bool{true, false} {
			want := refFindPath(st, avoid)
			if got := st.findPath(avoid); !samePath(got, want) {
				t.Fatalf("step %d avoid=%v: path %v, map-based search %v", steps, avoid, got, want)
			}
		}
		for _, reverse := range []bool{false, true} {
			want := refReachable(st, reverse)
			got := st.reachableRegions(reverse)
			for id := 0; id < st.o.regCount; id++ {
				if got.has(id) != want[id] {
					t.Fatalf("step %d reverse=%v: region %d reachable=%v, map-based %v", steps, reverse, id, got.has(id), want[id])
				}
			}
		}
		if _, done := st.checkMustSuccess(); done {
			t.Fatal("safe program reported reachable")
		}
		path := st.findPath(true)
		if path == nil {
			break
		}
		st.handleFrontier(path)
	}
	t.Logf("%d steps, %d regions minted", steps, st.o.regCount-initial)
	if st.o.regCount < initial+10 {
		t.Fatalf("only %d regions minted after %d steps; the search never ran over split regions", st.o.regCount-initial, steps)
	}
}

package logic

import (
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/lang"
)

// pastInternCap runs build with the intern table reporting full, so
// structures not interned before get ID 0, and restores the table.
func pastInternCap(t *testing.T, build func()) {
	t.Helper()
	saved := atomic.LoadUint64(&internNext)
	atomic.StoreUint64(&internNext, maxInternedIDs)
	defer atomic.StoreUint64(&internNext, saved)
	build()
}

// refChildren is the map-based flatten-and-dedup of Conj (and=true) or
// Disj: children of the same kind are spliced in, the neutral constant is
// dropped, and duplicates go by interned id, or by print for a child
// past the intern cap.
func refChildren(and bool, fs []Formula) (out []Formula, ids []ID) {
	seen := map[ID]bool{}
	seenStr := map[string]bool{}
	add := func(g Formula) {
		if _, ok := g.(Bool); ok {
			return
		}
		if id := KeyID(g); id != 0 {
			if !seen[id] {
				seen[id] = true
				out, ids = append(out, g), append(ids, id)
			}
			return
		}
		if k := g.String(); !seenStr[k] {
			seenStr[k] = true
			out, ids = append(out, g), append(ids, 0)
		}
	}
	for _, f := range fs {
		switch g := f.(type) {
		case And:
			if and {
				for _, h := range g.Fs {
					add(h)
				}
				continue
			}
		case Or:
			if !and {
				for _, h := range g.Fs {
					add(h)
				}
				continue
			}
		}
		add(f)
	}
	return out, ids
}

// dedupInputs builds n distinct atoms over variable prefix v, with
// duplicates of an early, a middle and the last atom, and with the first
// half nested so Conj/Disj flatten it.
func dedupInputs(v string, n int, and bool) []Formula {
	atoms := make([]Formula, n)
	for i := range atoms {
		atoms[i] = LE(LinVar(lang.Var(fmt.Sprintf("%s%d", v, i))).AddConst(int64(-i)))
	}
	half := atoms[:n/2]
	var nested Formula = Conj(half...)
	if !and {
		nested = Disj(half...)
	}
	fs := []Formula{nested, atoms[0]}
	fs = append(fs, atoms[n/2:]...)
	return append(fs, atoms[n/2], atoms[n-1])
}

// checkNode builds Conj (and=true) or Disj of fs plus the connective's
// neutral constant and compares it with the map-based reference.
func checkNode(t *testing.T, and bool, fs []Formula) {
	t.Helper()
	var got Formula
	var kids []Formula
	var id ID
	if and {
		fs = append(fs, True)
		got = Conj(fs...)
		a, ok := got.(And)
		if !ok {
			t.Fatalf("Conj = %T, want And", got)
		}
		kids, id = a.Fs, a.id
	} else {
		fs = append(fs, False)
		got = Disj(fs...)
		o, ok := got.(Or)
		if !ok {
			t.Fatalf("Disj = %T, want Or", got)
		}
		kids, id = o.Fs, o.id
	}
	want, wantIDs := refChildren(and, fs)
	if len(kids) != len(want) {
		t.Fatalf("%d children, map-based dedup keeps %d", len(kids), len(want))
	}
	allIn := true
	for i := range kids {
		if kids[i].String() != want[i].String() {
			t.Fatalf("child %d = %v, map-based dedup has %v", i, kids[i], want[i])
		}
		allIn = allIn && wantIDs[i] != 0
	}
	tag := tagAnd
	if !and {
		tag = tagOr
	}
	switch {
	case allIn && id != internNode(tag, wantIDs):
		t.Fatalf("node id %d, want the id of the map-based children", id)
	case !allIn && id != 0:
		t.Fatalf("node with an uninterned child got id %d", id)
	}
}

// TestConjDisjDedupAroundThreshold checks that the linear-scan dedup and
// its switch to a map give the children, order and interned id of the
// map-based path, for child counts on both sides of linearDedupMax.
func TestConjDisjDedupAroundThreshold(t *testing.T) {
	for _, n := range []int{linearDedupMax - 1, linearDedupMax, linearDedupMax + 1, 2*linearDedupMax + 3} {
		for _, and := range []bool{true, false} {
			t.Run(fmt.Sprintf("n=%d/and=%v", n, and), func(t *testing.T) {
				checkNode(t, and, dedupInputs(fmt.Sprintf("dd%v_", and), n, and))
			})
		}
	}
	// Conj and Disj abort on their absorbing constant.
	if Conj(append(dedupInputs("ab", linearDedupMax+1, true), False)...) != Formula(False) {
		t.Fatal("Conj with false child did not fold to false")
	}
	if Disj(append(dedupInputs("ab", linearDedupMax+1, false), True)...) != Formula(True) {
		t.Fatal("Disj with true child did not fold to true")
	}
}

// TestConjDisjDedupPastInternCap mixes interned children with children
// built past the intern cap (ID 0), duplicated, on both sides of the
// threshold.
func TestConjDisjDedupPastInternCap(t *testing.T) {
	for _, n := range []int{linearDedupMax - 1, linearDedupMax + 1} {
		for _, and := range []bool{true, false} {
			interned := dedupInputs(fmt.Sprintf("ci%v%d_", and, n), n, and)
			// Lazy interning would give the fresh children ids once the
			// table has room again, so build and check under the cap.
			pastInternCap(t, func() {
				fresh := dedupInputs(fmt.Sprintf("ovf%v%d_", and, n), 4, and)
				if KeyID(fresh[1]) != 0 {
					t.Fatal("atom built past the cap was interned")
				}
				fs := append(append(append([]Formula{}, interned...), fresh...), fresh[2], interned[1])
				checkNode(t, and, fs)
			})
		}
	}
}

// refSimplifyCube is simplifyCube with map-based dedup.
func refSimplifyCube(c Cube) (Cube, bool) {
	var out Cube
	seen := map[ID]bool{}
	seenStr := map[string]bool{}
	for _, a := range c {
		l := a.L.normalizeLE()
		if l.IsConst() {
			if l.K > 0 {
				return nil, false
			}
			continue
		}
		if id := LinID(l); id != 0 {
			if seen[id] {
				continue
			}
			seen[id] = true
		} else {
			if seenStr[l.String()] {
				continue
			}
			seenStr[l.String()] = true
		}
		out = append(out, Atom{L: l})
	}
	return out, true
}

// TestSimplifyCubeDedupAroundThreshold compares simplifyCube with the
// map-based dedup on cubes around linearDedupMax distinct terms, with
// duplicates (including scaled ones that normalize equal), a trivially
// true atom, and terms past the intern cap.
func TestSimplifyCubeDedupAroundThreshold(t *testing.T) {
	cube := func(v string, n int) Cube {
		var c Cube
		for i := 0; i < n; i++ {
			c = append(c, Atom{L: LinVar(lang.Var(fmt.Sprintf("%s%d", v, i))).AddConst(int64(i))})
		}
		c = append(c, c[0], Atom{L: c[n/2].L.Scale(3)}, Atom{L: LinConst(-1)}, c[n-1])
		return c
	}
	check := func(n int, c Cube) {
		t.Helper()
		got, gotOK := simplifyCube(c)
		want, wantOK := refSimplifyCube(c)
		if gotOK != wantOK || len(got) != len(want) {
			t.Fatalf("n=%d: %d atoms (ok=%v), map-based dedup %d (ok=%v)", n, len(got), gotOK, len(want), wantOK)
		}
		for i := range got {
			if !got[i].L.Equal(want[i].L) {
				t.Fatalf("n=%d: atom %d = %v, map-based dedup has %v", n, i, got[i], want[i])
			}
		}
	}
	for _, n := range []int{linearDedupMax - 1, linearDedupMax, linearDedupMax + 1, 2*linearDedupMax + 3} {
		interned := cube(fmt.Sprintf("sc%d_", n), n)
		check(n, interned)
		// Terms new past the intern cap dedup by print; check under the
		// cap, since lazy interning would give them ids afterwards.
		pastInternCap(t, func() {
			overflow := cube(fmt.Sprintf("sco%d_", n), 3)
			if LinID(overflow[0].L) != 0 {
				t.Fatal("term built past the cap was interned")
			}
			check(n, append(append(Cube{}, interned...), overflow...))
		})
	}
	if _, ok := simplifyCube(Cube{{L: LinVar("sx")}, {L: LinConst(2)}}); ok {
		t.Fatal("cube with 2 ≤ 0 not refuted")
	}
}

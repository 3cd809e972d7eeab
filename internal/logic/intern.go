// Hash-consing: a process-global, sharded intern table assigning small
// integer ids to linear terms and formula nodes. Structurally equal
// values always receive the same id, so the id doubles as a canonical
// map key — logic.Key, the entailment cache, the SUMDB answer memo and
// the DPLL skeleton's atom interning all become integer operations
// instead of recursive string builds.
//
// Invariant: interned values are immutable. Every Lin operation returns
// a fresh term and every Formula constructor returns a fresh node, so an
// id, once assigned, remains valid for the process lifetime. Ids are
// assigned in first-intern order: they are stable within a process but
// carry no meaning across processes, which is fine because every
// consumer uses them only as identity.
package logic

import (
	"strconv"
	"sync"
	"sync/atomic"
)

// ID identifies an interned term or formula node. The zero ID means
// "not interned" (the table cap was reached); callers must fall back to
// string keys for such values.
type ID uint64

// Reserved ids for the constant formulas.
const (
	idFalse ID = 1
	idTrue  ID = 2
)

const (
	// internShards stripes the table so concurrent PUNCH instances
	// rarely contend on the same lock.
	internShards = 64
	// maxInternedIDs caps the table. Past the cap new structures get
	// ID 0 and key construction falls back to strings; already-interned
	// structures keep resolving. The table lives for the process: one
	// pass over the wall-clock benchmark's 22-check suite panel interns
	// about 630k distinct terms and nodes, and a second pass over the
	// same programs adds under 40k, so the cap leaves room for long
	// processes and guards only pathological ones.
	maxInternedIDs = 1 << 21
	// Node tags distinguishing the interned kinds in one namespace.
	tagLin  = byte('l')
	tagAtom = byte('a')
	tagEq   = byte('e')
	tagAnd  = byte('A')
	tagOr   = byte('O')
)

type linEntry struct {
	l  Lin
	id ID
}

type nodeEntry struct {
	tag  byte
	kids []ID
	id   ID
}

type internShard struct {
	mu    sync.RWMutex
	lins  map[uint64][]linEntry
	nodes map[uint64][]nodeEntry
}

var internTab [internShards]internShard

var (
	internNext   uint64 // atomic; allocated ids are internNext+2
	internHits   int64  // atomic
	internMisses int64  // atomic
)

func init() {
	for i := range internTab {
		internTab[i].lins = map[uint64][]linEntry{}
		internTab[i].nodes = map[uint64][]nodeEntry{}
	}
}

// InternStats reports the global table's cumulative hit/miss counters: a
// hit is an intern request answered by an existing entry, a miss is a
// fresh insertion. Engines snapshot the pair at run start and fold the
// delta into the run's metrics as hashcons_hits.
func InternStats() (hits, misses int64) {
	return atomic.LoadInt64(&internHits), atomic.LoadInt64(&internMisses)
}

func allocID() ID {
	n := atomic.AddUint64(&internNext, 1)
	if n > maxInternedIDs-2 {
		return 0
	}
	return ID(n + 2) // 1 and 2 are reserved for False/True
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func mix(h, x uint64) uint64 {
	h ^= x
	h *= fnvPrime
	return h
}

func mixString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = mix(h, uint64(s[i]))
	}
	return mix(h, 0xff) // terminator so "ab","c" ≠ "a","bc"
}

func hashLin(l Lin) uint64 {
	h := mix(uint64(fnvOffset), uint64(l.K))
	for i, v := range l.Vars {
		h = mixString(h, string(v))
		h = mix(h, uint64(l.Coefs[i]))
	}
	return h
}

// LinID interns the canonical linear term l and returns its id (0 when
// the table is full).
func LinID(l Lin) ID {
	h := hashLin(l)
	sh := &internTab[h%internShards]
	sh.mu.RLock()
	for _, e := range sh.lins[h] {
		if e.l.Equal(l) {
			sh.mu.RUnlock()
			atomic.AddInt64(&internHits, 1)
			return e.id
		}
	}
	sh.mu.RUnlock()
	sh.mu.Lock()
	for _, e := range sh.lins[h] {
		if e.l.Equal(l) {
			sh.mu.Unlock()
			atomic.AddInt64(&internHits, 1)
			return e.id
		}
	}
	id := allocID()
	if id != 0 {
		sh.lins[h] = append(sh.lins[h], linEntry{l: l, id: id})
	}
	sh.mu.Unlock()
	atomic.AddInt64(&internMisses, 1)
	return id
}

func hashNode(tag byte, kids []ID) uint64 {
	h := mix(uint64(fnvOffset), uint64(tag))
	for _, k := range kids {
		h = mix(h, uint64(k))
	}
	return mix(h, uint64(len(kids)))
}

func nodeEq(e nodeEntry, tag byte, kids []ID) bool {
	if e.tag != tag || len(e.kids) != len(kids) {
		return false
	}
	for i, k := range kids {
		if e.kids[i] != k {
			return false
		}
	}
	return true
}

// internNode interns a formula node identified by its tag and ordered
// child ids. The kids slice is retained: callers pass ownership.
func internNode(tag byte, kids []ID) ID {
	h := hashNode(tag, kids)
	sh := &internTab[h%internShards]
	sh.mu.RLock()
	for _, e := range sh.nodes[h] {
		if nodeEq(e, tag, kids) {
			sh.mu.RUnlock()
			atomic.AddInt64(&internHits, 1)
			return e.id
		}
	}
	sh.mu.RUnlock()
	sh.mu.Lock()
	for _, e := range sh.nodes[h] {
		if nodeEq(e, tag, kids) {
			sh.mu.Unlock()
			atomic.AddInt64(&internHits, 1)
			return e.id
		}
	}
	id := allocID()
	if id != 0 {
		sh.nodes[h] = append(sh.nodes[h], nodeEntry{tag: tag, kids: kids, id: id})
	}
	sh.mu.Unlock()
	atomic.AddInt64(&internMisses, 1)
	return id
}

// internAtom interns the atom (l ≤ 0) or (l = 0) without allocating on
// the lookup path.
func internAtom(l Lin, eq bool) ID {
	lid := LinID(l)
	if lid == 0 {
		return 0
	}
	tag := tagAtom
	if eq {
		tag = tagEq
	}
	h := hashNode(tag, []ID{lid}) // inlined by escape analysis; does not allocate
	sh := &internTab[h%internShards]
	sh.mu.RLock()
	for _, e := range sh.nodes[h] {
		if e.tag == tag && len(e.kids) == 1 && e.kids[0] == lid {
			sh.mu.RUnlock()
			atomic.AddInt64(&internHits, 1)
			return e.id
		}
	}
	sh.mu.RUnlock()
	return internNode(tag, []ID{lid})
}

// KeyID returns the structural identity of f as an interned id, or 0
// when f (or a subterm) overflowed the intern table. Nodes built by the
// package constructors carry their id; literal-built nodes are interned
// lazily here.
func KeyID(f Formula) ID {
	switch f := f.(type) {
	case Bool:
		if bool(f) {
			return idTrue
		}
		return idFalse
	case Atom:
		if f.id != 0 {
			return f.id
		}
		return internAtom(f.L, f.Eq)
	case And:
		if f.id != 0 {
			return f.id
		}
		return internNodeOf(tagAnd, f.Fs)
	case Or:
		if f.id != 0 {
			return f.id
		}
		return internNodeOf(tagOr, f.Fs)
	default:
		return 0
	}
}

func internNodeOf(tag byte, fs []Formula) ID {
	kids := make([]ID, len(fs))
	for i, g := range fs {
		id := KeyID(g)
		if id == 0 {
			return 0
		}
		kids[i] = id
	}
	return internNode(tag, kids)
}

// Key returns a canonical string for f, usable as a map key for
// deduplication. Logically equal formulas may have different keys; the
// key is only required to be injective on structure. Interned formulas
// key as "#<id>"; overflow falls back to the structural print with a
// distinguishing prefix.
func Key(f Formula) string {
	if id := KeyID(f); id != 0 {
		return "#" + strconv.FormatUint(uint64(id), 10)
	}
	return "!" + f.String()
}

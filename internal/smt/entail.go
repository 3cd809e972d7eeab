// Sharded entailment cache: a striped-lock memo for Implies/Valid
// verdicts, shared between concurrent PUNCH instances the same way SUMDB
// is. Entailment over immutable formulas is a pure function of the two
// keys, so a cached verdict never needs invalidation; SUMDB's
// version-invalidated answer memo composes with it unchanged.
package smt

import (
	"sync"

	"repro/internal/logic"
)

const (
	// entailShards stripes the memo so concurrent workers rarely contend
	// on the same lock.
	entailShards = 64
	// maxEntailPerShard bounds each stripe; a full stripe is dropped
	// wholesale rather than evicted entry-by-entry.
	maxEntailPerShard = 1 << 10
	// maxSynConjuncts bounds the quadratic conjunct-subsumption scan.
	maxSynConjuncts = 16
)

// entailKey identifies one memoized verdict by the hash-consed ids of
// the operands: kind 'I' is Implies(a ⇒ b), kind 'V' is Valid(a). A
// struct key over integers makes the cached path allocation-free — no
// string build, no key concatenation.
type entailKey struct {
	kind byte
	a, b logic.ID
}

type entailShard struct {
	mu sync.RWMutex
	m  map[entailKey]bool
	// ms is the fallback for formulas past the intern-table cap, which
	// have no id and key by their structural print.
	ms map[string]bool
}

type entailCache struct {
	shards [entailShards]entailShard
}

func newEntailCache() *entailCache {
	c := &entailCache{}
	for i := range c.shards {
		c.shards[i].m = make(map[entailKey]bool)
	}
	return c
}

// shardOf picks a stripe by mixing the operand ids.
func shardOf(key entailKey) uint32 {
	h := (uint64(key.a)*0x9e3779b97f4a7c15 ^ uint64(key.b)) * 0x9e3779b97f4a7c15
	h ^= uint64(key.kind)
	return uint32(h>>33) % entailShards
}

// fnv32 is FNV-1a over a fallback key, for picking a stripe.
func fnv32[S ~string | ~[]byte](key S) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return h
}

func (c *entailCache) get(key entailKey) (bool, bool) {
	sh := &c.shards[shardOf(key)]
	sh.mu.RLock()
	v, ok := sh.m[key]
	sh.mu.RUnlock()
	return v, ok
}

func (c *entailCache) put(key entailKey, v bool) {
	sh := &c.shards[shardOf(key)]
	sh.mu.Lock()
	if len(sh.m) >= maxEntailPerShard {
		sh.m = make(map[entailKey]bool)
	}
	sh.m[key] = v
	sh.mu.Unlock()
}

func (c *entailCache) getStr(key string) (bool, bool) {
	sh := &c.shards[fnv32(key)%entailShards]
	sh.mu.RLock()
	v, ok := sh.ms[key]
	sh.mu.RUnlock()
	return v, ok
}

func (c *entailCache) putStr(key string, v bool) {
	sh := &c.shards[fnv32(key)%entailShards]
	sh.mu.Lock()
	if sh.ms == nil || len(sh.ms) >= maxEntailPerShard {
		sh.ms = make(map[string]bool)
	}
	sh.ms[key] = v
	sh.mu.Unlock()
}

// len reports the total number of cached verdicts (test support).
func (c *entailCache) len() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.RLock()
		n += len(sh.m) + len(sh.ms)
		sh.mu.RUnlock()
	}
	return n
}

// syntacticImplies is the cheap literal-subsumption pre-check run before
// DPLL: it proves a ⇒ b when every conjunct of b is entailed by some
// conjunct of a, where "entailed" is structural equality or, for ≤-atoms,
// a constant-offset comparison (L ≤ 0 entails L + c ≤ 0 for c ≤ 0).
// A true answer is always sound; false means "fall through to the solver".
func syntacticImplies(a, b logic.Formula) bool {
	if bb, ok := b.(logic.Bool); ok {
		return bool(bb)
	}
	if ab, ok := a.(logic.Bool); ok && !bool(ab) {
		return true
	}
	ac, bc := conjunctsOf(a), conjunctsOf(b)
	if len(ac) > maxSynConjuncts || len(bc) > maxSynConjuncts {
		return false
	}
	keys := make(map[logic.ID]bool, len(ac))
	for _, g := range ac {
		if id := logic.KeyID(g); id != 0 {
			keys[id] = true
		}
	}
	for _, g := range bc {
		if !conjunctEntailed(ac, keys, g) {
			return false
		}
	}
	return true
}

// conjunctsOf returns the top-level conjuncts of f (f itself when it is
// not a conjunction). Conj flattens at construction, so one level is
// enough.
func conjunctsOf(f logic.Formula) []logic.Formula {
	if and, ok := f.(logic.And); ok {
		return and.Fs
	}
	return []logic.Formula{f}
}

// conjunctEntailed reports whether some conjunct of a entails g
// syntactically.
func conjunctEntailed(ac []logic.Formula, keys map[logic.ID]bool, g logic.Formula) bool {
	if id := logic.KeyID(g); id != 0 && keys[id] {
		return true
	}
	ga, ok := g.(logic.Atom)
	if !ok || ga.Eq {
		return false
	}
	for _, h := range ac {
		ha, ok := h.(logic.Atom)
		if !ok || ha.Eq {
			continue
		}
		// h: L ≤ 0 entails g: L + c ≤ 0 whenever c ≤ 0.
		if d := ga.L.Sub(ha.L); d.IsConst() && d.K <= 0 {
			return true
		}
	}
	return false
}

// Sharded result memos for Sat and satCube, shared between concurrent
// PUNCH instances like the entailment cache. Satisfiability of an
// immutable formula or cube is a pure function of its structure, so a
// memoized verdict never needs invalidation; dropping one only costs the
// work of deciding it again.
package smt

import (
	"sync"

	"repro/internal/logic"
)

const (
	// memoShards stripes each memo so concurrent workers rarely contend
	// on the same lock.
	memoShards = 64
	// maxMemoPerShard bounds each stripe's id map and its byte-keyed
	// map. A full map is dropped wholesale, as in the entailment cache,
	// so the memo keeps caching recent work. The bound, 2^17 results of
	// a key kind per memo, covers the distinct formulas of the largest
	// Table 1 check, and it caps the models cached results retain, which
	// count toward the run's peak memory.
	maxMemoPerShard = 1 << 11
)

type memoShard struct {
	mu sync.RWMutex
	// ids keys by interned id: the Sat memo by the formula's id.
	ids map[logic.ID]Result
	// strs keys by bytes: the Sat memo by the structural print of a
	// formula past the intern-table cap, the cube memo by its packed
	// sorted atom-term ids.
	strs map[string]Result
}

// resultMemo is one sharded memo of solver results.
type resultMemo struct {
	shards [memoShards]memoShard
}

// shardOfID picks a stripe by mixing an interned id.
func shardOfID(id logic.ID) uint32 {
	return uint32((uint64(id)*0x9e3779b97f4a7c15)>>33) % memoShards
}

func (c *resultMemo) get(id logic.ID) (Result, bool) {
	sh := &c.shards[shardOfID(id)]
	sh.mu.RLock()
	r, ok := sh.ids[id]
	sh.mu.RUnlock()
	return r, ok
}

func (c *resultMemo) put(id logic.ID, r Result) {
	sh := &c.shards[shardOfID(id)]
	sh.mu.Lock()
	if sh.ids == nil || len(sh.ids) >= maxMemoPerShard {
		sh.ids = make(map[logic.ID]Result)
	}
	sh.ids[id] = r
	sh.mu.Unlock()
}

// getBytes looks key up without copying it: the map index converts the
// bytes in place.
func (c *resultMemo) getBytes(key []byte) (Result, bool) {
	sh := &c.shards[fnv32(key)%memoShards]
	sh.mu.RLock()
	r, ok := sh.strs[string(key)]
	sh.mu.RUnlock()
	return r, ok
}

func (c *resultMemo) putBytes(key []byte, r Result) {
	sh := &c.shards[fnv32(key)%memoShards]
	sh.mu.Lock()
	if sh.strs == nil || len(sh.strs) >= maxMemoPerShard {
		sh.strs = make(map[string]Result)
	}
	sh.strs[string(key)] = r
	sh.mu.Unlock()
}

// len reports the number of memoized results (test support).
func (c *resultMemo) len() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.RLock()
		n += len(sh.ids) + len(sh.strs)
		sh.mu.RUnlock()
	}
	return n
}

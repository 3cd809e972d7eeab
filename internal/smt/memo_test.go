package smt

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/logic"
)

// satTicks decides f and returns the ticks the call cost; a Sat memo hit
// costs exactly one.
func satTicks(s *Solver, f logic.Formula) int64 {
	before := s.Ticks()
	s.Sat(f)
	return s.Ticks() - before
}

// TestSatMemoKeepsCachingPastOldCap decides a formula, then more distinct
// formulas than the memo used to hold (it stopped inserting at 2^15
// entries), then the first formula again and a formula first seen past
// that point: both repeats must be memo hits.
func TestSatMemoKeepsCachingPastOldCap(t *testing.T) {
	s := New()
	first := logic.Conj(le(k(3), v("mx")), le(v("mx"), v("my")), le(v("my"), k(9)))
	if n := satTicks(s, first); n <= 1 {
		t.Fatalf("first decision cost %d ticks; a miss does theory work", n)
	}
	for i := int64(0); i <= 1<<15; i++ {
		s.Sat(le(v("mx"), k(i)))
	}
	if n := satTicks(s, first); n != 1 {
		t.Fatalf("repeat of the first formula cost %d ticks, want a memo hit (1)", n)
	}
	late := logic.Conj(le(k(4), v("mx")), le(v("mx"), v("my")), le(v("my"), k(9)))
	satTicks(s, late)
	if n := satTicks(s, late); n != 1 {
		t.Fatalf("repeat of a formula first decided past the old cap cost %d ticks, want 1", n)
	}
}

// TestResultMemoDropsFullShard: a full shard is emptied and refilled, so
// the memo stays bounded and always holds the newest result.
func TestResultMemoDropsFullShard(t *testing.T) {
	var m resultMemo
	const n = 3 * memoShards * maxMemoPerShard
	for id := logic.ID(1); id <= n; id++ {
		m.put(id, Result{Sat: true, Known: id%2 == 0})
		if r, ok := m.get(id); !ok || r.Known != (id%2 == 0) {
			t.Fatalf("id %d not found right after put", id)
		}
	}
	if got := m.len(); got > memoShards*maxMemoPerShard || got < maxMemoPerShard {
		t.Fatalf("memo holds %d results, want at most %d", got, memoShards*maxMemoPerShard)
	}
	key := []byte("cube-key")
	m.putBytes(key, Result{Known: true})
	if r, ok := m.getBytes(key); !ok || !r.Known || r.Sat {
		t.Fatalf("byte-keyed result = %+v, %v", r, ok)
	}
}

// TestResultMemoConcurrentDrops: goroutines sharing a memo put and get
// overlapping keys of one stripe, past its bound, so the stripe is
// dropped while others read it; every hit must still carry the result
// stored for its key.
func TestResultMemoConcurrentDrops(t *testing.T) {
	// Keys that all land in stripe 0, twice as many as it holds.
	var ids []logic.ID
	var keys [][]byte
	for id := logic.ID(1); len(ids) < 2*maxMemoPerShard || len(keys) < 2*maxMemoPerShard; id++ {
		if shardOfID(id) == 0 {
			ids = append(ids, id)
		}
		if key := []byte(fmt.Sprint(id)); fnv32(key)%memoShards == 0 {
			keys = append(keys, key)
		}
	}
	want := func(i int) bool { return i%3 == 0 }
	var m resultMemo
	const goroutines = 4
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := 0; n < 2*maxMemoPerShard; n++ {
				i := (n * (2*g + 1)) % (2 * maxMemoPerShard)
				if r, ok := m.get(ids[i]); ok && r.Known != want(i) {
					errs <- fmt.Errorf("id %d: hit carries another key's result", ids[i])
					return
				}
				m.put(ids[i], Result{Sat: true, Known: want(i)})
				if r, ok := m.getBytes(keys[i]); ok && r.Known != want(i) {
					errs <- fmt.Errorf("key %q: hit carries another key's result", keys[i])
					return
				}
				m.putBytes(keys[i], Result{Sat: true, Known: want(i)})
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	if got := m.len(); got > 2*maxMemoPerShard {
		t.Fatalf("stripe holds %d results, over its bound", got)
	}
}

package main

import (
	"bufio"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/punch"
	"repro/internal/query"
	"repro/internal/smt"
	"repro/internal/store"
	"repro/internal/summary"
	"repro/internal/wire"
)

// layer names the module a span's time belongs to.
type layer uint8

const (
	layerOp layer = iota
	layerParser
	layerCore
	layerPunch
	layerSummary
	layerStore
	layerWitness
)

var layerNames = [...]string{"op", "parser", "core", "punch", "summary", "store", "witness"}

func (l layer) String() string { return layerNames[l] }

// span is one timed call into a layer: the call's name, its interval in
// nanoseconds since the tracer's epoch, the span that caused it, and the
// op it belongs to. ok and n carry the per-call outcome the layer
// metrics count: a PUNCH invocation that finished its query (ok) and its
// abstract cost (n); a summary lookup that answered (ok); a store call
// that succeeded (ok).
type span struct {
	name       string
	layer      layer
	op         int64
	id, parent int64
	start, end int64
	ok         bool
	n          int64
}

func (s span) dur() int64 { return s.end - s.start }

// tracer keeps every span of a run in memory. The benchmark records
// spans from its own files only: around parser.Parse, the engine run,
// store open, and witness search at their call sites, and inside the
// punch.Punch, punch.DB and store.Store decorators below. A nil *tracer
// is the untraced configuration: no decorator is installed at all.
type tracer struct {
	epoch time.Time
	next  atomic.Int64
	op    atomic.Int64 // the op in flight
	run   atomic.Int64 // the engine-run span in flight (parent of PUNCH and store spans)

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin allocates a span id and stamps its start.
func (t *tracer) begin() (id, start int64) {
	return t.next.Add(1), int64(time.Since(t.epoch))
}

// end stamps s's end and records it.
func (t *tracer) end(s span) {
	s.end = int64(time.Since(t.epoch))
	s.op = t.op.Load()
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// writeTSV writes every span, one per line, for offline inspection.
func (t *tracer) writeTSV(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "name\tlayer\top\tid\tparent\tstart_ns\tend_ns\tok\tn")
	t.mu.Lock()
	for _, s := range t.spans {
		fmt.Fprintf(w, "%s\t%s\t%d\t%d\t%d\t%d\t%d\t%t\t%d\n", s.name, s.layer, s.op, s.id, s.parent, s.start, s.end, s.ok, s.n)
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedPunch times every PUNCH invocation. Per invocation it hands the
// wrapped analysis a shallow copy of the context whose DB is a timing
// decorator, so the summary spans parent to their PUNCH span.
type tracedPunch struct {
	inner punch.Punch
	tr    *tracer
}

func (p *tracedPunch) Name() string { return p.inner.Name() }

func (p *tracedPunch) Step(ctx *punch.Context, q *query.Query) punch.Result {
	id, start := p.tr.begin()
	c := *ctx
	c.DB = &tracedDB{inner: ctx.DB, tr: p.tr, parent: id}
	r := p.inner.Step(&c, q)
	done := r.Self != nil && r.Self.State == query.Done
	p.tr.end(span{name: "punch.Step", layer: layerPunch, id: id, parent: p.tr.run.Load(), start: start, ok: done, n: r.Cost})
	return r
}

// tracedDB times the SUMDB calls of one PUNCH invocation.
type tracedDB struct {
	inner  punch.DB
	tr     *tracer
	parent int64
}

func (d *tracedDB) record(name string, id, start int64, ok bool) {
	d.tr.end(span{name: name, layer: layerSummary, id: id, parent: d.parent, start: start, ok: ok})
}

func (d *tracedDB) Solver() *smt.Solver { return d.inner.Solver() }

func (d *tracedDB) Add(s summary.Summary) {
	id, start := d.tr.begin()
	d.inner.Add(s)
	d.record("summary.Add", id, start, true)
}

func (d *tracedDB) Answer(q summary.Question) (summary.Summary, int) {
	id, start := d.tr.begin()
	s, v := d.inner.Answer(q)
	d.record("summary.Answer", id, start, v != 0)
	return s, v
}

func (d *tracedDB) AnswerYes(q summary.Question) (summary.Summary, bool) {
	id, start := d.tr.begin()
	s, ok := d.inner.AnswerYes(q)
	d.record("summary.AnswerYes", id, start, ok)
	return s, ok
}

func (d *tracedDB) AnswerNo(q summary.Question) (summary.Summary, bool) {
	id, start := d.tr.begin()
	s, ok := d.inner.AnswerNo(q)
	d.record("summary.AnswerNo", id, start, ok)
	return s, ok
}

func (d *tracedDB) ForProc(proc string) []summary.Summary {
	id, start := d.tr.begin()
	out := d.inner.ForProc(proc)
	d.record("summary.ForProc", id, start, true)
	return out
}

// tracedStore times the calls the engine makes into a summary store.
// Its optional capabilities live on separate one-field types so that
// wrapStore can compose exactly the capability set of the wrapped store:
// the engine type-asserts them, and a missing one silently turns an
// incremental re-check into a full invalidation.
type tracedStore struct {
	inner store.Store
	tr    *tracer
}

func (s *tracedStore) timed(name string, call func() error) error {
	id, start := s.tr.begin()
	err := call()
	s.tr.end(span{name: name, layer: layerStore, id: id, parent: s.tr.run.Load(), start: start, ok: err == nil})
	return err
}

func (s *tracedStore) Load() (out []summary.Summary, err error) {
	err = s.timed("store.Load", func() error { out, err = s.inner.Load(); return err })
	return out, err
}

func (s *tracedStore) Put(sum summary.Summary) (added bool, err error) {
	err = s.timed("store.Put", func() error { added, err = s.inner.Put(sum); return err })
	return added, err
}

func (s *tracedStore) Flush() error { return s.timed("store.Flush", s.inner.Flush) }
func (s *tracedStore) Close() error { return s.timed("store.Close", s.inner.Close) }

type tracedProv struct{ s *tracedStore }

func (p tracedProv) PutProv(rec wire.ProvRecord) error {
	return p.s.timed("store.PutProv", func() error { return p.s.inner.(store.ProvStore).PutProv(rec) })
}

func (p tracedProv) LoadProv() (out []wire.ProvRecord, err error) {
	err = p.s.timed("store.LoadProv", func() error { out, err = p.s.inner.(store.ProvStore).LoadProv(); return err })
	return out, err
}

type tracedManifest struct{ s *tracedStore }

func (m tracedManifest) PutManifest(man map[string]store.Fingerprint) error {
	return m.s.timed("store.PutManifest", func() error { return m.s.inner.(store.ManifestStore).PutManifest(man) })
}

func (m tracedManifest) LoadManifest() (out map[string]store.Fingerprint, err error) {
	err = m.s.timed("store.LoadManifest", func() error { out, err = m.s.inner.(store.ManifestStore).LoadManifest(); return err })
	return out, err
}

type tracedDeleter struct{ s *tracedStore }

func (d tracedDeleter) DeleteProcs(procs []string) (out map[string]int, err error) {
	err = d.s.timed("store.DeleteProcs", func() error { out, err = d.s.inner.(store.Deleter).DeleteProcs(procs); return err })
	return out, err
}

// counter is the store capability core reads surviving-summary counts
// through on a reused verdict.
type counter interface{ Count() int }

type tracedCounter struct{ s *tracedStore }

func (c tracedCounter) Count() (n int) {
	c.s.timed("store.Count", func() error { n = c.s.inner.(counter).Count(); return nil })
	return n
}

// wrapStore returns a timing decorator of st that implements
// store.ProvStore, store.ManifestStore, store.Deleter and Count exactly
// when st does.
func wrapStore(st store.Store, tr *tracer) store.Store {
	t := &tracedStore{inner: st, tr: tr}
	p, m, d, c := tracedProv{t}, tracedManifest{t}, tracedDeleter{t}, tracedCounter{t}
	_, hasP := st.(store.ProvStore)
	_, hasM := st.(store.ManifestStore)
	_, hasD := st.(store.Deleter)
	_, hasC := st.(counter)
	type caps struct{ p, m, d, c bool }
	switch (caps{hasP, hasM, hasD, hasC}) {
	case caps{false, false, false, false}:
		return t
	case caps{false, false, false, true}:
		return struct {
			*tracedStore
			tracedCounter
		}{t, c}
	case caps{false, false, true, false}:
		return struct {
			*tracedStore
			tracedDeleter
		}{t, d}
	case caps{false, false, true, true}:
		return struct {
			*tracedStore
			tracedDeleter
			tracedCounter
		}{t, d, c}
	case caps{false, true, false, false}:
		return struct {
			*tracedStore
			tracedManifest
		}{t, m}
	case caps{false, true, false, true}:
		return struct {
			*tracedStore
			tracedManifest
			tracedCounter
		}{t, m, c}
	case caps{false, true, true, false}:
		return struct {
			*tracedStore
			tracedManifest
			tracedDeleter
		}{t, m, d}
	case caps{false, true, true, true}:
		return struct {
			*tracedStore
			tracedManifest
			tracedDeleter
			tracedCounter
		}{t, m, d, c}
	case caps{true, false, false, false}:
		return struct {
			*tracedStore
			tracedProv
		}{t, p}
	case caps{true, false, false, true}:
		return struct {
			*tracedStore
			tracedProv
			tracedCounter
		}{t, p, c}
	case caps{true, false, true, false}:
		return struct {
			*tracedStore
			tracedProv
			tracedDeleter
		}{t, p, d}
	case caps{true, false, true, true}:
		return struct {
			*tracedStore
			tracedProv
			tracedDeleter
			tracedCounter
		}{t, p, d, c}
	case caps{true, true, false, false}:
		return struct {
			*tracedStore
			tracedProv
			tracedManifest
		}{t, p, m}
	case caps{true, true, false, true}:
		return struct {
			*tracedStore
			tracedProv
			tracedManifest
			tracedCounter
		}{t, p, m, c}
	case caps{true, true, true, false}:
		return struct {
			*tracedStore
			tracedProv
			tracedManifest
			tracedDeleter
		}{t, p, m, d}
	default:
		return struct {
			*tracedStore
			tracedProv
			tracedManifest
			tracedDeleter
			tracedCounter
		}{t, p, m, d, c}
	}
}

package main

import (
	"fmt"
	"strconv"
	"time"

	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/parser"
	"repro/internal/punch"
	"repro/internal/punch/maymust"
	"repro/internal/store"
	"repro/internal/wire"
	"repro/internal/witness"
)

// threads is the engines' MaxThreads: the host has two cores.
const threads = 2

// opTimeout bounds one op's engine run; a run that hits it ends Unknown,
// which the oracle counts as a failed op.
const opTimeout = 120 * time.Second

// incrFingerprint identifies the edit-stable incremental store the way
// `boltcheck -store -incr` opens it: schema, wire version and analysis,
// deliberately free of program text.
var incrFingerprint = store.NewFingerprint("bolt/incr-store", strconv.Itoa(wire.Version), "may-must")

// opInput is one op of a workload's seeded stream: the source text in
// hand, the verdict its generator fixed, and for re-checks the store
// directory and whether an edit preceded it.
type opInput struct {
	check    string
	src      string
	buggy    bool
	storeDir string // "" for a cold check without a store
	edited   string // the procedure the preceding edit touched; "" for an unchanged re-run
}

// opResult is what the timed part of an op produced.
type opResult struct {
	opID int64
	wall time.Duration
	prog *cfg.Program
	res  core.Result
	err  error // parse or store open/close failure
}

// engineOptions is the configuration every op runs: the default barrier
// MAP/REDUCE engine or the streaming engine, two threads, may-must.
func engineOptions(async bool, p punch.Punch, st store.Store) core.Options {
	return core.Options{
		Punch:       p,
		MaxThreads:  threads,
		Async:       async,
		RealTimeout: opTimeout,
		Store:       st,
		Incremental: st != nil,
	}
}

// runOp runs one op: parse, open the store (re-checks), run the engine,
// close the store. Everything it does is op time. With a tracer, each
// call into a layer is a span under the op's root span.
func runOp(in opInput, async bool, tr *tracer) opResult {
	start := time.Now()
	var opID, opStart int64
	if tr != nil {
		opID, opStart = tr.begin()
		tr.op.Store(opID)
	}
	out := timedOp(in, async, tr)
	out.opID = opID
	if tr != nil {
		tr.end(span{name: "op", layer: layerOp, id: opID, start: opStart, ok: out.err == nil})
	}
	out.wall = time.Since(start)
	return out
}

func timedOp(in opInput, async bool, tr *tracer) opResult {
	var out opResult
	var id, start int64
	if tr != nil {
		id, start = tr.begin()
	}
	prog, err := parser.Parse(in.src)
	if tr != nil {
		tr.end(span{name: "parser.Parse", layer: layerParser, id: id, parent: tr.op.Load(), start: start, ok: err == nil})
	}
	if err != nil {
		out.err = fmt.Errorf("parse %s: %w", in.check, err)
		return out
	}
	out.prog = prog

	var st store.Store
	if in.storeDir != "" {
		if tr != nil {
			id, start = tr.begin()
		}
		disk, err := store.OpenDisk(in.storeDir, incrFingerprint, false)
		if tr != nil {
			tr.end(span{name: "store.Open", layer: layerStore, id: id, parent: tr.op.Load(), start: start, ok: err == nil})
		}
		if err != nil {
			out.err = fmt.Errorf("open store for %s: %w", in.check, err)
			return out
		}
		st = disk
		if tr != nil {
			st = wrapStore(disk, tr)
		}
	}

	var p punch.Punch = maymust.New()
	if tr != nil {
		id, start = tr.begin()
		tr.run.Store(id)
		p = &tracedPunch{inner: p, tr: tr}
	}
	out.res = core.New(prog, engineOptions(async, p, st)).Run(core.AssertionQuestion(prog))
	if tr != nil {
		tr.end(span{name: "core.Run", layer: layerCore, id: id, parent: tr.op.Load(), start: start, ok: true})
		tr.run.Store(0)
	}
	if st != nil {
		if err := st.Close(); err != nil {
			out.err = fmt.Errorf("close store for %s: %w", in.check, err)
		}
	}
	return out
}

// verdictOf is the oracle's expected verdict: the generator's Buggy flag.
func verdictOf(buggy bool) core.Verdict {
	if buggy {
		return core.ErrorReachable
	}
	return core.Safe
}

// judge checks one op against the oracle, outside op time. It returns
// the reason the op failed, or "". An op fails on a parse or store
// error, a wrong verdict (Unknown and timeouts included), an
// ErrorReachable without a witness that replays through the concrete
// interpreter, and, for re-checks, on leaving the incremental path: an
// edit must re-check only its cone, and an unchanged re-run must reuse
// the persisted verdict.
func judge(in opInput, out opResult, tr *tracer) string {
	switch {
	case out.err != nil:
		return out.err.Error()
	case out.res.StoreErr != nil:
		return fmt.Sprintf("%s: store error: %v", in.check, out.res.StoreErr)
	case out.res.Verdict != verdictOf(in.buggy):
		return fmt.Sprintf("%s: verdict %q, want %q (stop %v)", in.check, out.res.Verdict, verdictOf(in.buggy), out.res.StopReason)
	}
	if out.res.Verdict == core.ErrorReachable && !replayableWitness(out.prog, tr) {
		return fmt.Sprintf("%s: ErrorReachable without a replayable witness", in.check)
	}
	if in.storeDir == "" {
		return ""
	}
	edited, procs := len(out.res.EditedProcs), len(out.prog.ProcNames())
	switch {
	case in.edited != "" && (edited == 0 || edited >= procs):
		return fmt.Sprintf("%s: edit of %s re-checked %d of %d procedures, want the incremental path", in.check, in.edited, edited, procs)
	case in.edited == "" && !out.res.ReusedVerdict:
		return fmt.Sprintf("%s: unchanged re-run did not reuse its verdict (%d edited)", in.check, edited)
	}
	return ""
}

// replayableWitness searches for a concrete failing execution and
// replays it through the interpreter.
func replayableWitness(prog *cfg.Program, tr *tracer) bool {
	var id, start int64
	if tr != nil {
		id, start = tr.begin()
	}
	w, ok := witness.Find(prog, witness.Options{})
	ok = ok && w.Replay(prog)
	if tr != nil {
		tr.end(span{name: "witness.Find", layer: layerWitness, id: id, parent: tr.op.Load(), start: start, ok: ok})
	}
	return ok
}

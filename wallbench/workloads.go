package main

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"sort"

	"repro/internal/core"
	"repro/internal/drivers"
	"repro/internal/harness"
	"repro/internal/incr"
	"repro/internal/parser"
	"repro/internal/punch/maymust"
	"repro/internal/store"
	"repro/internal/witness"
)

// workload is one seeded input stream and how its ops run.
type workload struct {
	name  string
	async bool // streaming work-stealing engine instead of barrier MAP/REDUCE
	// A run measures whole rounds of round ops, as many as take
	// --seconds at roundSeconds, the round's wall time on the reference
	// host (two cores). The op count is fixed by --seconds, not by the
	// clock, so two commits always measure the same ops.
	round        int
	roundSeconds float64
	usesStore    bool
	setupReps    int
	// setup generates the op stream from seed; dir is where it may put
	// stores.
	setup func(seed int64, dir string) ([]opInput, error)
}

var workloads = map[string]workload{
	"suite-cold": {
		name: "suite-cold", round: (len(drivers.SuiteChecks()) + suiteStride - 1) / suiteStride, roundSeconds: 40, setupReps: 9,
		setup: func(seed int64, _ string) ([]opInput, error) { return suiteCold(seed, suitePasses), nil },
	},
	"table1-stream": {
		name: "table1-stream", async: true, round: 6, roundSeconds: 10, setupReps: 9,
		setup: func(seed int64, _ string) ([]opInput, error) { return table1Stream(seed, table1Passes), nil },
	},
	"edit-recheck": {
		name: "edit-recheck", round: 1, roundSeconds: 0.15, usesStore: true, setupReps: 3,
		setup: func(seed int64, dir string) ([]opInput, error) {
			cold, ins, err := editStream(seed, editOps, dir)
			if err != nil {
				return nil, err
			}
			return ins, populate(cold)
		},
	},
}

// opsFor is the op count of a run of the given length: the whole number
// of rounds nearest to it, at least one.
func (w workload) opsFor(seconds float64) int {
	return w.round * max(1, int(math.Round(seconds/w.roundSeconds)))
}

func workloadNames() []string {
	var out []string
	for k := range workloads {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Panel and stream sizes. The streams hold more ops than any run of
// the timed phase reaches.
const (
	suiteStride  = 23
	suitePasses  = 4
	table1Passes = 40
	editOps      = 800
)

// concreteBug reports whether src has a failing execution that the
// concrete interpreter finds and replays. The generator's Buggy flag
// alone is not ground truth: for some checks (among them 13 of the 45
// RemoveLockMnSurpriseRemove drivers) the injected operation is masked
// by the monitor operations before it and the Buggy variant is safe.
func concreteBug(src string) bool {
	prog, err := parser.Parse(src)
	if err != nil {
		return false
	}
	w, ok := witness.Find(prog, witness.Options{})
	return ok && w.Replay(prog)
}

// suitePanel is a systematic sample of the 495-check matrix
// (drivers.SuiteChecks, driver-major): every suiteStride-th check. The
// stride is coprime to the eleven properties, so the panel walks the
// property list twice while it walks the driver roster, named drivers
// and generated fillers alike. Every fourth check, from the third on, is
// generated Buggy; a Buggy variant whose injected bug has no concrete
// failing execution (see concreteBug) runs as the safe variant instead.
func suitePanel() []opInput {
	all := drivers.SuiteChecks()
	var out []opInput
	for i := 0; i < len(all); i += suiteStride {
		c := all[i].Config
		c.Buggy = len(out)%4 == 2
		src := drivers.Source(c)
		if c.Buggy && !concreteBug(src) {
			c.Buggy = false
			src = drivers.Source(c)
		}
		out = append(out, opInput{check: all[i].ID(), src: src, buggy: c.Buggy})
	}
	return out
}

// suiteCold is passes passes over the suite panel, each in a seeded
// order.
func suiteCold(seed int64, passes int) []opInput {
	r := rand.New(rand.NewSource(seed))
	panel := suitePanel()
	var out []opInput
	for p := 0; p < passes; p++ {
		for _, i := range r.Perm(len(panel)) {
			out = append(out, panel[i])
		}
	}
	return out
}

// table1Stream is passes passes over the paper's six Table 1 checks, each
// pass in a seeded order.
func table1Stream(seed int64, passes int) []opInput {
	r := rand.New(rand.NewSource(seed))
	checks := harness.Table1Checks()
	srcs := make([]string, len(checks))
	for i, c := range checks {
		srcs[i] = drivers.Source(c.Config)
	}
	var out []opInput
	for p := 0; p < passes; p++ {
		for _, i := range r.Perm(len(checks)) {
			out = append(out, opInput{check: checks[i].ID(), src: srcs[i], buggy: checks[i].Config.Buggy})
		}
	}
	return out
}

// editPanel is edit-recheck's drivers: safe and buggy checks of the
// paper's parport driver and two generated fillers.
var editPanel = []drivers.Check{
	drivers.NamedCheck("parport", "PowerUpFail", false),
	drivers.NamedCheck("drv10", "PnpIrpCompletion", true),
	drivers.NamedCheck("drv20", "IrqlExAllocatePool", false),
}

// editStream is a seeded stream of n re-checks over the edit panel, and
// cold, each driver's first, store-populating check. Ops visit the
// drivers in seeded rounds. In every block of four visits to a driver, a
// seeded three follow a semantics-preserving edit of one procedure
// (incr.MutateSource with a seeded shape, cumulative per driver) and one
// is an unchanged re-run. Each driver's edits cycle through its
// procedures, each cycle in a seeded order, so every run edits each
// procedure about as often.
func editStream(seed int64, n int, dir string) (cold, stream []opInput, err error) {
	r := rand.New(rand.NewSource(seed))
	type driver struct {
		check   drivers.Check
		src     string
		procs   []string
		next    []int // procedure indices left in the current edit cycle
		visits  int
		rerunAt int // the re-run's position in the current block of four visits
		dir     string
	}
	var ds []*driver
	for i, c := range editPanel {
		src := drivers.Source(c.Config)
		if c.Config.Buggy && !concreteBug(src) {
			return nil, nil, fmt.Errorf("%s: the Buggy variant has no concrete failing execution", c.ID())
		}
		prog, err := parser.Parse(src)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", c.ID(), err)
		}
		d := &driver{check: c, src: src, procs: prog.ProcNames(), dir: filepath.Join(dir, fmt.Sprintf("store%d", i))}
		ds = append(ds, d)
		cold = append(cold, opInput{check: c.ID(), src: src, buggy: c.Config.Buggy, storeDir: d.dir})
	}
	var order []int
	for i := 0; i < n; i++ {
		if len(order) == 0 {
			order = r.Perm(len(ds))
		}
		d := ds[order[0]]
		order = order[1:]
		if d.visits%4 == 0 {
			d.rerunAt = r.Intn(4)
		}
		in := opInput{check: d.check.ID(), buggy: d.check.Config.Buggy, storeDir: d.dir}
		if d.visits%4 != d.rerunAt {
			if len(d.next) == 0 {
				d.next = r.Perm(len(d.procs))
			}
			proc := d.procs[d.next[0]]
			d.next = d.next[1:]
			src, err := incr.MutateSource(d.src, proc, r.Int63())
			if err != nil {
				return nil, nil, fmt.Errorf("%s: %w", d.check.ID(), err)
			}
			d.src, in.edited = src, proc
		}
		d.visits++
		in.src = d.src
		stream = append(stream, in)
	}
	return cold, stream, nil
}

// populate runs each check cold into its empty disk store, as
// `boltcheck -store -incr` would on the first check of a driver.
func populate(cold []opInput) error {
	for _, in := range cold {
		prog, err := parser.Parse(in.src)
		if err != nil {
			return fmt.Errorf("populate %s: %w", in.check, err)
		}
		st, err := store.OpenDisk(in.storeDir, incrFingerprint, true)
		if err != nil {
			return fmt.Errorf("populate %s: %w", in.check, err)
		}
		res := core.New(prog, engineOptions(false, maymust.New(), st)).Run(core.AssertionQuestion(prog))
		if err := st.Close(); err != nil {
			return fmt.Errorf("populate %s: %w", in.check, err)
		}
		if res.StoreErr != nil || res.Verdict != verdictOf(in.buggy) {
			return fmt.Errorf("populate %s: verdict %v, store error %v", in.check, res.Verdict, res.StoreErr)
		}
	}
	return nil
}

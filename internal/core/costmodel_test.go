package core

import (
	"testing"

	"repro/internal/drivers"
	"repro/internal/punch/maymust"
)

// TestCostModelPinned pins the analysis work of three small suite checks
// on the sequential barrier engine with may-must. At MaxThreads 1 the run
// is deterministic, so virtual ticks, query count and iteration count are
// exact functions of the PUNCH cost model and the scheduling order. A
// change that only makes PUNCH, the solver or the formula layer faster
// must leave all three untouched; a change that moves them changed the
// analysis, not just its speed.
func TestCostModelPinned(t *testing.T) {
	cases := []struct {
		driver, prop string
		ticks        int64
		queries      int64
		iters        int
	}{
		{"drv37", "PowerDownFail", 21859, 17, 38},
		{"drv14", "PowerDownFail", 60741, 23, 82},
		{"drv18", "RemoveLockForwardDeviceControl", 150307, 41, 173},
	}
	for _, c := range cases {
		prog := drivers.Generate(drivers.NamedCheck(c.driver, c.prop, false).Config)
		res := New(prog, Options{Punch: maymust.New(), MaxThreads: 1}).Run(AssertionQuestion(prog))
		if res.Verdict != Safe {
			t.Errorf("%s/%s: verdict %v, want Safe", c.driver, c.prop, res.Verdict)
		}
		if res.VirtualTicks != c.ticks || res.TotalQueries != c.queries || res.Iterations != c.iters {
			t.Errorf("%s/%s: ticks/queries/iterations = %d/%d/%d, want %d/%d/%d",
				c.driver, c.prop, res.VirtualTicks, res.TotalQueries, res.Iterations,
				c.ticks, c.queries, c.iters)
		}
	}
}

package main

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/store"
	"repro/internal/summary"
	"repro/internal/wire"
)

// TestWorkloadSmoke runs every workload end to end at tiny size: set-up,
// a couple of ops untraced with the oracle, and one traced op through
// the decorators, the reconciliation and the refusal checks.
func TestWorkloadSmoke(t *testing.T) {
	for _, name := range workloadNames() {
		w := workloads[name]
		t.Run(name, func(t *testing.T) {
			inputs, setups, err := setUp(w, 7, t.TempDir(), 1)
			if err != nil {
				t.Fatal(err)
			}
			if len(setups) != 1 || setups[0] <= 0 {
				t.Fatalf("set-up times %v", setups)
			}
			ph := timedPhase(w, inputs, 2, nil)
			if len(ph.ops) != 2 {
				t.Fatalf("ran %d ops, want 2", len(ph.ops))
			}
			if fails := judgeAll(ph, nil); len(fails) > 0 {
				t.Fatalf("oracle: %v", fails)
			}

			// The traced op must follow the untraced ones in the stream:
			// edit-recheck's stores have moved on.
			replay := func(n int) (float64, error) {
				var s float64
				for _, o := range ph.ops[:n] {
					s += o.wall.Seconds()
				}
				return s, nil
			}
			res, lines, err := traced(w, inputs[2:], 1, t.TempDir(), "", replay)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Attempted != 1 {
				t.Fatalf("traced run: %+v\n%s", res, strings.Join(lines, "\n"))
			}
			for _, k := range []string{"core.run_s", "punch.calls", "parser.calls", "store.calls", "incr.edited", "trace.overhead_frac"} {
				if _, ok := res.Metrics[k]; !ok {
					t.Errorf("per-layer metric %s missing", k)
				}
			}
			if got := res.Metrics["store.calls"].Value > 0; got != w.usesStore {
				t.Errorf("store.calls = %v on %s", res.Metrics["store.calls"].Value, name)
			}
		})
	}
}

// TestSameSeedSameInputs pins the workloads' determinism: a seed fixes
// every source byte and the whole edit stream, and another seed changes
// them.
func TestSameSeedSameInputs(t *testing.T) {
	for _, name := range []string{"suite-cold", "table1-stream"} {
		w := workloads[name]
		a, errA := w.setup(3, "")
		b, errB := w.setup(3, "")
		if errA != nil || errB != nil {
			t.Fatal(errA, errB)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 3 gave two different op streams", name)
		}
		c, _ := w.setup(4, "")
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 3 and 4 gave the same op stream", name)
		}
	}
	coldA, a, errA := editStream(3, 40, "stores")
	coldB, b, errB := editStream(3, 40, "stores")
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	if !reflect.DeepEqual(coldA, coldB) || !reflect.DeepEqual(a, b) {
		t.Error("edit-recheck: seed 3 gave two different edit streams")
	}
	edits := 0
	for _, in := range a {
		if in.edited != "" {
			edits++
		}
	}
	if edits < 27 || edits > 33 {
		t.Errorf("edit-recheck: %d of 40 ops follow an edit, want about 30", edits)
	}
	_, c, _ := editStream(4, 40, "stores")
	if reflect.DeepEqual(a, c) {
		t.Error("edit-recheck: seeds 3 and 4 gave the same edit stream")
	}
}

// capsOf lists the optional store capabilities the engines type-assert.
func capsOf(st store.Store) []string {
	var out []string
	if _, ok := st.(store.ProvStore); ok {
		out = append(out, "prov")
	}
	if _, ok := st.(store.ManifestStore); ok {
		out = append(out, "manifest")
	}
	if _, ok := st.(store.Deleter); ok {
		out = append(out, "deleter")
	}
	if _, ok := st.(counter); ok {
		out = append(out, "count")
	}
	return out
}

type bareStore struct{}

func (bareStore) Load() ([]summary.Summary, error)  { return nil, nil }
func (bareStore) Put(summary.Summary) (bool, error) { return false, nil }
func (bareStore) Flush() error                      { return nil }
func (bareStore) Close() error                      { return nil }

type provOnly struct{ bareStore }

func (provOnly) PutProv(wire.ProvRecord) error        { return nil }
func (provOnly) LoadProv() ([]wire.ProvRecord, error) { return nil, nil }

type manifestDeleter struct{ bareStore }

func (manifestDeleter) PutManifest(map[string]store.Fingerprint) error { return nil }
func (manifestDeleter) LoadManifest() (map[string]store.Fingerprint, error) {
	return nil, nil
}
func (manifestDeleter) DeleteProcs([]string) (map[string]int, error) { return nil, nil }

type countOnly struct{ bareStore }

func (countOnly) Count() int { return 0 }

// TestStoreDecoratorCapabilities checks that the traced store exposes
// exactly the capability set of the store it wraps.
func TestStoreDecoratorCapabilities(t *testing.T) {
	disk, err := store.OpenDisk(t.TempDir(), incrFingerprint, true)
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	for name, st := range map[string]store.Store{
		"disk":             disk,
		"mem":              store.NewMem(),
		"bare":             struct{ store.Store }{bareStore{}},
		"prov":             provOnly{},
		"manifest+deleter": manifestDeleter{},
		"count":            countOnly{},
	} {
		want, got := capsOf(st), capsOf(wrapStore(st, newTracer()))
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: decorator has %v, wrapped store has %v", name, got, want)
		}
	}
}

func TestTailAndMedian(t *testing.T) {
	xs := make([]float64, 40)
	for i := range xs {
		xs[i] = float64(40 - i)
	}
	v, pct, beyond := tailOf(xs)
	if v != 30 || pct != 75 || beyond != 10 {
		t.Errorf("tailOf(1..40) = %v p%v %d beyond, want 30 p75 10 beyond", v, pct, beyond)
	}
	if m := median(xs); m != 20.5 {
		t.Errorf("median(1..40) = %v, want 20.5", m)
	}
}

// TestPartitionReconciles checks the op-time partition on overlapping
// spans from two threads: every covered instant is counted once, by the
// innermost layer active on any thread.
func TestPartitionReconciles(t *testing.T) {
	spans := []span{
		{layer: layerParser, start: 0, end: 10},
		{layer: layerCore, start: 10, end: 100},
		{layer: layerPunch, start: 20, end: 60},
		{layer: layerPunch, start: 40, end: 90},
		{layer: layerSummary, start: 50, end: 55},
		{layer: layerStore, start: 92, end: 98},
	}
	got := partition(spans)
	want := [len(layerNames)]int64{layerParser: 10, layerCore: 10 + 2 + 2, layerPunch: 65, layerSummary: 5, layerStore: 6}
	if got != want {
		t.Errorf("partition = %v, want %v", got, want)
	}
	if c := covered(spans[2:], 10, 100); c != 76 {
		t.Errorf("covered = %d, want 76", c)
	}
}

// TestRefuseImpossibleNumbers checks that the benchmark rejects its own
// output when a number cannot be true.
func TestRefuseImpossibleNumbers(t *testing.T) {
	ok := map[string]metric{"core.worker_util": {0.9, "ratio"}, "punch.self_s": {1, "s"}, "incr.edited": {3, "count"}, "store.calls": {5, "count"}}
	if bad := refuse(ok, true); len(bad) != 0 {
		t.Errorf("refused plausible numbers: %v", bad)
	}
	for name, m := range map[string]map[string]metric{
		"utilisation above one": {"core.worker_util": {1.01, "ratio"}},
		"negative self time":    {"core.self_s": {-0.001, "s"}},
		"store without a store": {"store.calls": {1, "count"}},
		"incr without a store":  {"incr.invalidated": {2, "count"}},
	} {
		if bad := refuse(m, false); len(bad) == 0 {
			t.Errorf("%s: not refused", name)
		}
	}
	if bad := refuse(map[string]metric{"incr.edited": {0, "count"}}, true); len(bad) == 0 {
		t.Error("no edits on an edit workload: not refused")
	}

	spans := []span{
		{layer: layerOp, id: 1, start: 0, end: 100},
		{layer: layerParser, parent: 1, start: 1, end: 10},
		{layer: layerCore, id: 2, parent: 1, start: 10, end: 99},
	}
	var lt layerTotals
	if err := lt.addOp(spans, 100); err != nil {
		t.Errorf("reconciling op refused: %v", err)
	}
	if err := lt.addOp(spans, 200); err == nil {
		t.Error("op whose layers cover half its wall time: not refused")
	}
	outside := append(spans, span{layer: layerStore, parent: 2, start: 90, end: 120})
	if err := lt.addOp(outside, 100); err == nil {
		t.Error("span outside its op: not refused")
	}
}

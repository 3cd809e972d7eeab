// Command wallbench is the repository's wall-clock benchmark. It runs one
// workload from a single process as a closed loop of one client: each op
// (a check or re-check, timed from source text in hand to verdict) starts
// when the previous one has finished, on engines with MaxThreads 2. Every
// verdict is checked against the generator's Buggy flag, and every
// ErrorReachable against a witness that replays through the concrete
// interpreter.
//
//	wallbench --workload suite-cold --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// runs the ops traced, attributes their time to the repository's modules,
// and prints the per-layer metrics. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/logic"
)

// processStart stamps the first set-up repetition's start.
var processStart = time.Now()

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 30, "length of the timed phase on the reference host (it sets the op count)")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	work := flag.String("work", filepath.Join(".bench_build", "wallbench"), "directory for stores and span dumps")
	replay := flag.Int("replay", 0, "internal: run exactly this many ops untraced and print their summed wall time")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "wallbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	dir := filepath.Join(*work, strconv.Itoa(os.Getpid()))
	defer os.RemoveAll(dir)

	reps := w.setupReps
	if *replay > 0 {
		reps = 1
	}
	inputs, setups, err := setUp(w, *seed, dir, reps)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wallbench: set-up:", err)
		return 1
	}

	if *replay > 0 {
		ph := timedPhase(w, inputs, *replay, nil)
		var wall time.Duration
		for _, o := range ph.ops {
			wall += o.wall
		}
		fmt.Printf("{\"replay_ops\": %d, \"replay_wall_s\": %.9f}\n", len(ph.ops), wall.Seconds())
		return 0
	}

	var res result
	var lines []string
	if *trace == 0 {
		res, lines = endToEnd(w, inputs, w.opsFor(*seconds), setups)
	} else {
		replay := func(n int) (float64, error) { return replayUntraced(w.name, *seed, n, *work) }
		spans := filepath.Join(*work, "spans-"+w.name+".tsv")
		res, lines, err = traced(w, inputs, w.opsFor(*seconds), dir, spans, replay)
		if err != nil {
			fmt.Fprintln(os.Stderr, "wallbench:", err)
			return 1
		}
	}
	fmt.Printf("wallbench %s seed=%d trace=%d\n", w.name, *seed, *trace)
	for _, l := range lines {
		fmt.Println(l)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wallbench:", err)
		return 1
	}
	fmt.Println(string(out))
	if !res.Correct {
		return 1
	}
	return 0
}

// setUp generates the workload's inputs reps times (for edit-recheck
// that includes populating the stores cold) and keeps the last. The
// first repetition is timed from process start.
func setUp(w workload, seed int64, dir string, reps int) ([]opInput, []float64, error) {
	var inputs []opInput
	var times []float64
	for r := 0; r < reps; r++ {
		start := time.Now()
		if r == 0 {
			start = processStart
		}
		repDir := filepath.Join(dir, fmt.Sprintf("setup%d", r))
		var err error
		inputs, err = w.setup(seed, repDir)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(start).Seconds())
		if r < reps-1 {
			if err := os.RemoveAll(repDir); err != nil {
				return nil, nil, err
			}
		}
	}
	return inputs, times, nil
}

// phase is one timed loop's raw record.
type phase struct {
	ops  []opResult
	ins  []opInput
	wall time.Duration
	cpu  time.Duration
}

// timedPhase runs the first n ops of the stream, one at a time. Only
// ops run here; the oracle judges them afterwards.
func timedPhase(w workload, inputs []opInput, n int, tr *tracer) phase {
	var ph phase
	cpu0 := cpuTime()
	start := time.Now()
	for _, in := range inputs[:min(n, len(inputs))] {
		out := runOp(in, w.async, tr)
		out.res.Summaries, out.res.Trace, out.res.CostByProc = nil, nil, nil
		ph.ops = append(ph.ops, out)
		ph.ins = append(ph.ins, in)
	}
	ph.wall = time.Since(start)
	ph.cpu = cpuTime() - cpu0
	return ph
}

// judgeAll runs the oracle over a phase and returns the failure reasons.
func judgeAll(ph phase, tr *tracer) []string {
	var fails []string
	for i, out := range ph.ops {
		if tr != nil {
			tr.op.Store(out.opID)
		}
		if why := judge(ph.ins[i], out, tr); why != "" {
			fails = append(fails, why)
		}
	}
	return fails
}

func endToEnd(w workload, inputs []opInput, ops int, setups []float64) (result, []string) {
	ph := timedPhase(w, inputs, ops, nil)
	fails := judgeAll(ph, nil)
	n := len(ph.ops)
	walls := make([]float64, n)
	for i, o := range ph.ops {
		walls[i] = o.wall.Seconds()
	}
	tail, pct, beyond := tailOf(walls)
	m := map[string]metric{
		"verdict_s_p50":   {median(walls), "s"},
		"verdict_s_tail":  {tail, "s"},
		"checks_per_s":    {float64(n) / ph.wall.Seconds(), "ops/s"},
		"cpu_s_per_check": {ph.cpu.Seconds() / float64(n), "s"},
		"peak_rss_mb":     {peakRSSMB(), "MB"},
		"setup_s":         {median(setups), "s"},
	}
	lines := []string{fmt.Sprintf("ops %d in %.3f s timed", n, ph.wall.Seconds())}
	for _, k := range sortedKeys(m) {
		line := fmt.Sprintf("%-16s %.6g %s", k, m[k].Value, m[k].Unit)
		switch k {
		case "verdict_s_tail":
			line += fmt.Sprintf(" (p%.1f of %d samples, %d beyond)", pct, n, beyond)
		case "setup_s":
			line += fmt.Sprintf(" (median of %d set-ups: %s)", len(setups), fmtList(setups))
		}
		lines = append(lines, line)
	}
	lines = append(lines, fmt.Sprintf("%-16s %.6g ratio (%d of %d ops failed)", "fail_frac", float64(len(fails))/float64(max(n, 1)), len(fails), n))
	lines = append(lines, perCheck(ph)...)
	for _, f := range fails {
		lines = append(lines, "FAIL "+f)
	}
	return result{Correct: len(fails) == 0 && n > 0, Attempted: n, Failed: len(fails), Metrics: m}, lines
}

// traced runs the timed phase traced (the same ops an untraced run of
// the seed measures), has replay run them again untraced for the
// tracing overhead, renders the per-layer metrics, and writes the spans
// to spansPath ("" writes none).
func traced(w workload, inputs []opInput, ops int, dir, spansPath string, replay func(n int) (float64, error)) (result, []string, error) {
	tr := newTracer()
	hits0, misses0 := logic.InternStats()
	ph := timedPhase(w, inputs, ops, tr)
	hits1, misses1 := logic.InternStats()
	fails := judgeAll(ph, tr)
	n := len(ph.ops)

	byOp := opSpans(tr.spans)
	var t layerTotals
	var c runCounts
	var bad []string
	var opWall time.Duration
	for _, o := range ph.ops {
		opWall += o.wall
		if err := t.addOp(byOp[o.opID], o.wall.Nanoseconds()); err != nil {
			bad = append(bad, fmt.Sprintf("op %d: %v", o.opID, err))
		}
		r := o.res
		c.queries += r.TotalQueries
		c.steals += r.Steals
		c.peakLive = max(c.peakLive, int64(r.PeakLive))
		c.satCalls += r.Solver.SatCalls
		c.theoryChecks += r.Solver.TheoryChecks
		c.entailHits += r.Solver.EntailCacheHits
		c.entailMisses += r.Solver.EntailCacheMisses
		c.dpllConflicts += r.Solver.DPLLConflicts
		c.coalesceHits += r.CoalesceHits
		c.loaded += int64(r.WarmSummaries)
		c.persisted += int64(r.PersistedSummaries)
		c.edited += int64(len(r.EditedProcs))
		c.invalidated += int64(r.InvalidatedSummaries)
		c.surviving += int64(r.SurvivingSummaries)
		if r.ReusedVerdict {
			c.reused++
		}
		if r.StoreErr != nil {
			c.storeErrs++
		}
	}

	replayWall, err := replay(n)
	if err != nil {
		return result{}, nil, err
	}
	overhead := opWall.Seconds()/replayWall - 1
	m := layerMetrics(&t, c, hits0, misses0, hits1, misses1, dirBytes(dir), overhead)
	bad = append(bad, refuse(m, w.usesStore)...)
	if spansPath != "" {
		if err := tr.writeTSV(spansPath); err != nil {
			fmt.Fprintln(os.Stderr, "wallbench: span dump:", err)
		}
	}

	lines := []string{fmt.Sprintf("ops %d traced in %.3f s; %d spans; replayed untraced in %.3f s of op time", n, ph.wall.Seconds(), len(tr.spans), replayWall)}
	lines = append(lines, fmt.Sprintf("layer self time (s): %s; unattributed worst op %.3f%% (tolerance %.0f%%)", fmtSelf(t.selfNs), 100*t.worstGap, 100*reconcileTol))
	for _, k := range sortedKeys(m) {
		lines = append(lines, fmt.Sprintf("%-26s %.6g %s", k, m[k].Value, m[k].Unit))
	}
	for _, f := range fails {
		lines = append(lines, "FAIL "+f)
	}
	for _, b := range bad {
		lines = append(lines, "REFUSED "+b)
	}
	ok := len(fails) == 0 && len(bad) == 0 && n > 0
	return result{Correct: ok, Attempted: n, Failed: len(fails), Metrics: m}, lines, nil
}

// replayUntraced runs the first n ops of the same seeded stream untraced
// in a fresh process (its own intern table and heap, as the traced run
// had) and returns their summed op wall time in seconds.
func replayUntraced(name string, seed int64, n int, work string) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(exe, "--workload", name, "--seed", strconv.FormatInt(seed, 10), "--trace", "0", "--replay", strconv.Itoa(n), "--work", work)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("untraced replay: %w", err)
	}
	var rep struct {
		Ops  int     `json:"replay_ops"`
		Wall float64 `json:"replay_wall_s"`
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		return 0, fmt.Errorf("untraced replay output: %w", err)
	}
	if rep.Ops != n || rep.Wall <= 0 {
		return 0, fmt.Errorf("untraced replay ran %d of %d ops", rep.Ops, n)
	}
	return rep.Wall, nil
}

// perCheck renders one row per check (and, on re-checks, per edit or
// unchanged re-run): its op count and median and largest op wall time.
func perCheck(ph phase) []string {
	walls := map[string][]float64{}
	for i, o := range ph.ops {
		key := ph.ins[i].check
		if ph.ins[i].storeDir != "" {
			key += map[bool]string{true: " edit", false: " re-run"}[ph.ins[i].edited != ""]
		}
		walls[key] = append(walls[key], o.wall.Seconds())
	}
	keys := make([]string, 0, len(walls))
	for k := range walls {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var out []string
	for _, k := range keys {
		w := walls[k]
		sort.Float64s(w)
		out = append(out, fmt.Sprintf("  %-42s ops %3d  p50 %.4f s  max %.4f s", k, len(w), median(w), w[len(w)-1]))
	}
	return out
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's high-water resident set (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// dirBytes is the size of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil
	})
	return n
}

func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', 4, 64)
	}
	return strings.Join(parts, " ")
}

func fmtSelf(self [len(layerNames)]int64) string {
	var parts []string
	for l, ns := range self {
		if l != int(layerOp) && l != int(layerWitness) {
			parts = append(parts, fmt.Sprintf("%s %.4f", layer(l), secs(ns)))
		}
	}
	return strings.Join(parts, ", ")
}

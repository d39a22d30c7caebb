// Command perfbench is the repository benchmark. It runs one named
// workload at a given seed for a given number of host seconds, checks
// the simulated outcome, and prints its metrics as one JSON object on
// the last line of standard output. A human-readable report goes to
// standard error.
//
//	perfbench -workload scale -seed 42 -seconds 30 -trace 0
//
// With -trace 0 it reports the end-to-end metrics (host time, set-up
// time, peak memory, simulated outcome). With -trace 1 it reports the
// per-layer metrics: it alternates untraced passes with traced passes
// that time every call the benchmark makes into a layer's public API,
// under the CPU profiler, and checks that tracing left the outcome
// unchanged.
// NOTES.md explains the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"dyrs/internal/migration"
)

// workloadFunc performs one set-up (timed as setup_s) and returns the
// pass that runs it (timed as wall_s).
type workloadFunc func(seed int64, l *ledger) (func() (*passResult, error), error)

var workloads = map[string]workloadFunc{
	"scale":   scaleWorkload,
	"serving": servingWorkload,
	"paper":   paperWorkload,
	"sharded": shardWorkload,
}

// note is one human-readable line of a workload's report.
type note struct {
	name  string
	value float64
	unit  string
}

// passResult is what one pass of a workload returns. digest fingerprints
// the simulated outcome, so repeats and traced/untraced runs of one seed
// can be compared; outcome is the pass's sim_outcome; layers holds the
// simulated per-layer values (counts and virtual latencies).
type passResult struct {
	digest  uint64
	outcome float64
	notes   []note
	layers  map[string]float64
}

// newPassResult fingerprints the simulated outcome as the FNV-1a hash
// of its JSON encoding.
func newPassResult(outcome any) *passResult {
	h := fnv.New64a()
	if err := json.NewEncoder(h).Encode(outcome); err != nil {
		panic(fmt.Sprintf("perfbench: outcome is not JSON-encodable: %v", err))
	}
	return &passResult{digest: h.Sum64(), layers: map[string]float64{}}
}

func (r *passResult) note(name string, v float64, unit string) {
	r.notes = append(r.notes, note{name, v, unit})
}

func (r *passResult) layer(name string, v float64) { r.layers[name] = v }

func (r *passResult) migrationLayers(c *migration.Coordinator, b *migration.PolicyBinder) {
	st := c.Stats()
	r.layer("migration.binder_passes", float64(b.Updates))
	r.layer("migration.binder_skipped", float64(b.SkippedUpdates))
	r.layer("migration.requested", float64(st.Requested))
	r.layer("migration.migrated", float64(st.Migrated))
	r.layer("migration.dropped", float64(st.Dropped))
	r.layer("migration.missed_reads", float64(st.MissedReads))
	r.layer("migration.memory_hits", float64(st.MemoryHits))
}

func (r *passResult) policyLayers(p *timedPolicy) {
	if p != nil {
		r.layer("policy.unassigned", float64(p.unassigned))
	}
}

func (r *passResult) flowLayers(c *flowCounter) {
	if c != nil {
		r.layer("sim.resource.flows", float64(c.flows))
		r.layer("sim.resource.cancels", float64(c.cancels))
		r.layer("sim.resource.peak_active", float64(c.peak))
	}
}

// metric is one entry of the printed "metrics" object.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// timing is one pass's host times and its peak resident set.
type timing struct {
	setup, wall time.Duration
	rssMiB      float64
}

// runner executes passes of one workload and keeps the tally.
type runner struct {
	name      string
	fn        workloadFunc
	seed      int64
	deadline  time.Time
	attempted int
	failures  []string
	digest    uint64
	haveRef   bool
	last      *passResult
	longest   time.Duration // longest set-up + pass seen, for budgeting

	mem memDelta // traced passes: Go runtime deltas, summed
}

// memDelta accumulates Go runtime counters over the traced passes,
// excluding the collections the benchmark forces between phases.
type memDelta struct {
	alloc, mallocs, gcs, pauseNs uint64
}

func readMem() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

func (d *memDelta) add(before, after runtime.MemStats) {
	d.alloc += after.TotalAlloc - before.TotalAlloc
	d.mallocs += after.Mallocs - before.Mallocs
	d.gcs += uint64(after.NumGC - before.NumGC)
	d.pauseNs += after.PauseTotalNs - before.PauseTotalNs
}

// pass runs one set-up and its pass. A panic, an error, a broken
// invariant or an outcome digest that differs from the first pass's is
// a failure.
func (r *runner) pass(l *ledger) (t timing, ok bool) {
	r.attempted++
	start := time.Now()
	defer func() {
		if p := recover(); p != nil {
			r.failures = append(r.failures, fmt.Sprintf("panic: %v", p))
			ok = false
		}
		r.longest = max(r.longest, time.Since(start))
	}()

	// Return freed memory to the OS and restart the kernel's peak-RSS
	// count, so the pass's peak is its own and not a previous pass's.
	debug.FreeOSMemory()
	resetPeakRSS()
	var m0 runtime.MemStats
	if l != nil {
		m0 = readMem()
	}
	t0 := time.Now()
	run, err := r.fn(r.seed, l)
	t.setup = time.Since(t0)
	if err != nil {
		r.failures = append(r.failures, err.Error())
		return t, false
	}
	if l != nil {
		r.mem.add(m0, readMem())
	}

	runtime.GC()
	if l != nil {
		m0 = readMem()
	}
	t1 := time.Now()
	res, err := run()
	t.wall = time.Since(t1)
	t.rssMiB = peakRSSMiB()
	if l != nil {
		r.mem.add(m0, readMem())
	}
	if err != nil {
		r.failures = append(r.failures, err.Error())
		return t, false
	}
	if !r.haveRef {
		r.digest, r.haveRef = res.digest, true
	} else if res.digest != r.digest {
		r.failures = append(r.failures, fmt.Sprintf("outcome digest %016x differs from the first pass's %016x", res.digest, r.digest))
		return t, false
	}
	r.last = res
	return t, true
}

// setupOnly times one more set-up whose pass is never run.
func (r *runner) setupOnly() (d time.Duration, ok bool) {
	r.attempted++
	defer func() {
		if p := recover(); p != nil {
			r.failures = append(r.failures, fmt.Sprintf("panic in set-up: %v", p))
			ok = false
		}
	}()
	debug.FreeOSMemory()
	t0 := time.Now()
	_, err := r.fn(r.seed, nil)
	d = time.Since(t0)
	if err != nil {
		r.failures = append(r.failures, err.Error())
		return d, false
	}
	return d, true
}

// fits reports whether another pass is expected to end before the
// deadline.
func (r *runner) fits(until time.Time) bool {
	return time.Now().Add(r.longest).Before(until)
}

// passes runs passes until the next one would overrun until (at least
// one), stopping at the first failure.
func (r *runner) passes(l *ledger, until time.Time) []timing {
	var ts []timing
	for {
		t, ok := r.pass(l)
		if !ok {
			return ts
		}
		ts = append(ts, t)
		if !r.fits(until) {
			return ts
		}
	}
}

// maxSetups caps how many set-ups one run times.
const maxSetups = 25

// endToEnd runs untraced passes for the run's seconds, then tops the
// set-up samples up with set-up-only repeats while time remains, and
// returns the end-to-end metrics.
func (r *runner) endToEnd() map[string]metric {
	ts := r.passes(nil, r.deadline)
	if len(r.failures) > 0 {
		return nil
	}
	var setups, walls, rss []float64
	var setupMax time.Duration
	for _, t := range ts {
		setups = append(setups, t.setup.Seconds())
		walls = append(walls, t.wall.Seconds())
		rss = append(rss, t.rssMiB)
		setupMax = max(setupMax, t.setup)
	}
	// At least three set-ups, even when one pass fills the run.
	for len(setups) < 3 || (len(setups) < maxSetups && time.Now().Add(setupMax).Before(r.deadline)) {
		d, ok := r.setupOnly()
		if !ok {
			return nil
		}
		setups = append(setups, d.Seconds())
		setupMax = max(setupMax, d)
	}
	fmt.Fprintf(os.Stderr, "perfbench %s seed %d: %d passes, %d set-ups\n", r.name, r.seed, len(walls), len(setups))
	fmt.Fprintf(os.Stderr, "  %-26s %14.6f s      median; passes: %s\n", "wall_s", median(walls), list(walls))
	fmt.Fprintf(os.Stderr, "  %-26s %14.6f s      median; set-ups: %s\n", "setup_s", median(setups), list(setups))
	fmt.Fprintf(os.Stderr, "  %-26s %14.3f MiB    median; passes: %s\n", "peak_rss_mib", median(rss), list(rss))
	fmt.Fprintf(os.Stderr, "  %-26s %14.6f ratio\n", "sim_outcome", r.last.outcome)
	for _, n := range r.last.notes {
		fmt.Fprintf(os.Stderr, "  %-26s %14.6f %s\n", n.name, n.value, n.unit)
	}
	fmt.Fprintf(os.Stderr, "  %-26s %14.6f ratio\n", "failed_frac", 0.0)
	return map[string]metric{
		"wall_s":       {median(walls), "s"},
		"setup_s":      {median(setups), "s"},
		"peak_rss_mib": {median(rss), "MiB"},
		"sim_outcome":  {r.last.outcome, "ratio"},
	}
}

// perLayer alternates untraced passes and traced passes, the latter
// under the CPU profiler, until the run's time is up (at least one of
// each), and returns the per-layer metrics. Alternating lets both kinds
// see the same host conditions, so their ratio estimates the tracing
// overhead. Host-time metrics are per traced pass.
func (r *runner) perLayer(scratch string) map[string]metric {
	l := &ledger{}
	prof := newProfiler(scratch, r.name, r.seed)
	var plain, traced []timing
	var sim map[string]float64 // simulated per-layer values of a traced pass
	for i := 0; ; i++ {
		if i%2 == 0 {
			t, ok := r.pass(nil)
			if !ok {
				break
			}
			plain = append(plain, t)
		} else {
			if err := prof.start(); err != nil {
				r.failures = append(r.failures, err.Error())
				break
			}
			t, ok := r.pass(l)
			if err := prof.stop(); err != nil {
				r.failures = append(r.failures, err.Error())
			}
			if !ok {
				break
			}
			traced = append(traced, t)
			sim = r.last.layers
		}
		if i >= 1 && !r.fits(r.deadline) {
			break
		}
	}
	shares, err := prof.shares()
	if err != nil {
		r.failures = append(r.failures, err.Error())
	}
	if len(r.failures) > 0 {
		return nil
	}

	n := float64(len(traced))
	st := &l.stats
	perPass := func(d time.Duration) float64 { return d.Seconds() / n }
	perCall := func(s spanStat) float64 {
		if s.count == 0 {
			return 0
		}
		return float64(s.total.Nanoseconds()) / float64(s.count)
	}
	// Simulated values first, then host-time and runtime values; every
	// declared metric is reported, zero where the workload does not
	// exercise its layer.
	v := map[string]float64{}
	for k, x := range sim {
		v[k] = x
	}
	if events := sim["sim.engine.events"]; events > 0 {
		v["sim.engine.ns_per_event"] = float64(st[spanRun].total.Nanoseconds()) / n / events
	}
	v["sim.engine.self_s"] = perPass(st[spanRun].self)
	v["dfs.create_s"] = perPass(st[spanCreate].total)
	v["dfs.read_calls"] = float64(st[spanRead].count) / n
	v["dfs.read_call_ns"] = perCall(st[spanRead])
	v["migration.migrate_s"] = perPass(st[spanMigrate].total)
	v["migration.noteread_s"] = perPass(st[spanNoteRead].total)
	v["migration.evict_s"] = perPass(st[spanEvict].total)
	v["policy.begin_calls"] = float64(st[spanBegin].count) / n
	v["policy.assign_calls"] = float64(st[spanAssign].count) / n
	v["policy.assign_ns"] = perCall(st[spanAssign])
	v["workload.gen_s"] = perPass(st[spanGen].total)
	v["paper.trace_s"] = perPass(st[spanPaperTrace].total)
	v["paper.hive_s"] = perPass(st[spanPaperHive].total)
	v["paper.swim_s"] = perPass(st[spanPaperSWIM].total)
	v["paper.sort_s"] = perPass(st[spanPaperSort].total)
	v["go.alloc_mib"] = float64(r.mem.alloc) / n / (1 << 20)
	v["go.allocs"] = float64(r.mem.mallocs) / n
	v["go.gc_cycles"] = float64(r.mem.gcs) / n
	v["go.gc_pause_ms"] = float64(r.mem.pauseNs) / n / 1e6
	for pkg, share := range shares {
		v["cpu."+pkg] = share
	}
	var plainWalls, tracedWalls []float64
	for _, t := range plain {
		plainWalls = append(plainWalls, t.wall.Seconds())
	}
	for _, t := range traced {
		tracedWalls = append(tracedWalls, t.wall.Seconds())
	}
	v["bench.trace_overhead"] = median(tracedWalls)/median(plainWalls) - 1

	out := map[string]metric{}
	for _, d := range perLayerMetrics {
		out[d.name] = metric{v[d.name], d.unit}
	}

	fmt.Fprintf(os.Stderr, "perfbench %s seed %d (traced): %d untraced, %d traced passes\n", r.name, r.seed, len(plain), len(traced))
	for _, d := range perLayerMetrics {
		fmt.Fprintf(os.Stderr, "  %-34s %16.6f %s\n", d.name, out[d.name].Value, d.unit)
	}
	fmt.Fprintf(os.Stderr, "  span ledger (per traced pass): kind, calls, total s, self s\n")
	for k := spanKind(0); k < numSpans; k++ {
		if s := st[k]; s.count > 0 {
			fmt.Fprintf(os.Stderr, "    %-20s %12.0f %12.6f %12.6f\n", spanNames[k], float64(s.count)/n, perPass(s.total), perPass(s.self))
		}
	}
	return out
}

// layerMetric declares one per-layer metric and its unit.
type layerMetric struct{ name, unit string }

// perLayerMetrics lists every per-layer metric and its unit, in report
// order; the traced run reports exactly these.
var perLayerMetrics = []layerMetric{
	{"sim.engine.events", "count"}, {"sim.engine.peak_queue", "count"},
	{"sim.engine.ns_per_event", "ns"}, {"sim.engine.self_s", "s"},
	{"sim.resource.flows", "count"}, {"sim.resource.cancels", "count"}, {"sim.resource.peak_active", "count"},
	{"sim.shard.windows", "count"}, {"sim.shard.solo_rounds", "count"},
	{"sim.shard.stalls", "count"}, {"sim.shard.msgs", "count"},
	{"dfs.create_s", "s"}, {"dfs.read_calls", "count"}, {"dfs.read_call_ns", "ns"},
	{"dfs.read_p50_ms", "ms"}, {"dfs.read_p99_ms", "ms"}, {"dfs.read_unserved", "count"},
	{"migration.migrate_s", "s"}, {"migration.noteread_s", "s"}, {"migration.evict_s", "s"},
	{"migration.binder_passes", "count"}, {"migration.binder_skipped", "count"},
	{"migration.requested", "count"}, {"migration.migrated", "count"}, {"migration.dropped", "count"},
	{"migration.missed_reads", "count"}, {"migration.memory_hits", "count"},
	{"policy.begin_calls", "count"}, {"policy.assign_calls", "count"},
	{"policy.assign_ns", "ns"}, {"policy.unassigned", "count"},
	{"cache.hits", "count"}, {"cache.misses", "count"}, {"cache.hit_rate", "ratio"},
	{"serving.interactive.within_target", "ratio"}, {"serving.api.within_target", "ratio"},
	{"serving.batch.within_target", "ratio"}, {"serving.interactive.p99_ms", "ms"},
	{"serving.api.p99_ms", "ms"}, {"serving.batch.p99_ms", "ms"},
	{"compute.jobs", "count"}, {"compute.tasks", "count"}, {"compute.mean_job_s", "s"},
	{"paper.trace_s", "s"}, {"paper.hive_s", "s"}, {"paper.swim_s", "s"}, {"paper.sort_s", "s"},
	{"paper.err_pp", "pp"},
	{"workload.gen_s", "s"},
	{"go.alloc_mib", "MiB"}, {"go.allocs", "count"}, {"go.gc_cycles", "count"}, {"go.gc_pause_ms", "ms"},
	{"cpu.sim", "ratio"}, {"cpu.migration", "ratio"}, {"cpu.dfs", "ratio"}, {"cpu.policy", "ratio"},
	{"cpu.cache", "ratio"}, {"cpu.compute", "ratio"}, {"cpu.trace", "ratio"}, {"cpu.runtime", "ratio"},
	{"bench.trace_overhead", "ratio"},
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func list(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', 4, 64)
	}
	return strings.Join(parts, " ")
}

// resetPeakRSS restarts the kernel's peak-RSS (VmHWM) count at the
// current resident set. Where that is not possible, VmHWM stays the
// process-wide peak, which is still an upper bound for every pass.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMiB reads the process's peak resident set (VmHWM) the way
// internal/obs run manifests do.
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if fields := strings.Fields(line); len(fields) >= 2 && fields[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(fields[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

func main() {
	name := flag.String("workload", "", "workload: scale, serving, paper or sharded")
	seed := flag.Int64("seed", 42, "workload seed")
	seconds := flag.Int("seconds", 30, "host seconds to measure for")
	traced := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	scratch := flag.String("scratch", os.TempDir(), "directory for the traced run's CPU profile")
	flag.Parse()

	fn, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload one of scale, serving, paper, sharded; -seconds >= 1; -trace 0 or 1\n")
		os.Exit(2)
	}
	r := &runner{name: *name, fn: fn, seed: *seed, deadline: time.Now().Add(time.Duration(*seconds) * time.Second)}
	var metrics map[string]metric
	if *traced == 1 {
		metrics = r.perLayer(*scratch)
	} else {
		metrics = r.endToEnd()
	}
	out := output{
		Correct:   len(r.failures) == 0,
		Attempted: r.attempted,
		Failed:    len(r.failures),
		Metrics:   metrics,
	}
	if out.Metrics == nil {
		out.Metrics = map[string]metric{}
	}
	for _, f := range r.failures {
		fmt.Fprintf(os.Stderr, "perfbench %s seed %d: FAILED: %s\n", r.name, r.seed, f)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

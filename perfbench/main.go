// Command perfbench is MTC's end-to-end benchmark. It drives one of three
// workloads through a real entry point — the in-process Figure 2
// pipeline, served jobs, streaming sessions — for a fixed
// window, checks every verdict against a reference computed in setup,
// and prints each metric by name and unit. The last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// run measures half the window untraced and half traced, in alternating
// quarters, then probes every layer on the workload's own inputs, and
// reports the per-layer metrics, each layer's self time and the tracing
// overhead.
//
//	go run . -workload serve-jobs -seed 1 -seconds 10 -trace 0
//
// See README.md for the workloads' rationale and the layer map.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// defaultSeed is the workload seed of recorded runs; heldOutSeed is kept
// for validating claims on inputs no change was tuned on.
const (
	defaultSeed = 1
	heldOutSeed = 7877
)

// setups is how often a run sets up its workload; setup_s is the
// median, and the last set-up environment is measured.
const setups = 5

// slices is how many consecutive parts the timed window is measured in.
const slices = 3

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
	var (
		name    = flag.String("workload", "", "workload: "+strings.Join(sortedNames(), ", "))
		seed    = flag.Int64("seed", defaultSeed, fmt.Sprintf("workload seed (held-out seed for validating claims: %d)", heldOutSeed))
		seconds = flag.Float64("seconds", 10, "measured window in seconds")
		trace   = flag.Int("trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
		out     = flag.String("out", "", "directory for the trace file and scratch data (default $CARGO_TARGET_DIR or .bench_build, under perfbench/)")
	)
	flag.Parse()
	dir := *out
	if dir == "" {
		base := os.Getenv("CARGO_TARGET_DIR")
		if base == "" {
			base = ".bench_build"
		}
		dir = filepath.Join(base, "perfbench")
	}
	if err := run(*name, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, dir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, window time.Duration, traced bool, dir string) (err error) {
	var def *workloadDef
	for i := range workloads {
		if workloads[i].name == name {
			def = &workloads[i]
		}
	}
	if def == nil {
		return fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(sortedNames(), ", "))
	}
	if window <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	tmp, err := tmpDir(dir)
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	ctx := context.Background()
	fmt.Printf("workload %s seed %d seconds %g trace %t gomaxprocs %d clients %d loop closed\n",
		name, seed, window.Seconds(), traced, runtime.GOMAXPROCS(0), clientsOf(name))

	var tr *tracer
	if traced {
		tr = newTracer()
	}
	var e env
	var setupS []float64
	for i := 0; i < setups; i++ {
		if e != nil {
			if err := e.close(); err != nil {
				return err
			}
		}
		t0 := time.Now()
		e, err = def.setup(ctx, seed, tr, tmp)
		setupS = append(setupS, time.Since(t0).Seconds())
		if err != nil {
			if e != nil {
				_ = e.close() // the setup error is the one to report
			}
			return fmt.Errorf("setup: %w", err)
		}
	}
	defer func() {
		if cerr := e.close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	e.describe(os.Stdout)

	res := result{Correct: true, Metrics: map[string]metric{}}
	if !traced {
		// The window is measured as consecutive slices and each figure is
		// the median over the slices, so that a stretch of slow machine
		// time inside the window moves one slice, not the figure.
		var m measurement
		var tps, p50, p90 []float64
		for i := 0; i < slices; i++ {
			sl := measure(e, nil, window/slices)
			tps = append(tps, sl.tps())
			p50 = append(p50, quantile(sl.t.lat, 0.5))
			p90 = append(p90, quantile(sl.t.lat, 0.9))
			m = m.merge(sl)
		}
		m.print(e.opName())
		op := e.opName()
		fmt.Printf("slices: %d of %.1fs; medians over slices: txns_per_s %.1f, %s_p50_ms %.3f, %s_p90_ms %.3f (pooled p90 %.3f)\n",
			slices, (window / slices).Seconds(), quantile(tps, 0.5), op, quantile(p50, 0.5), op, quantile(p90, 0.5), quantile(m.t.lat, 0.9))
		res.Attempted, res.Failed = m.t.attempted, m.t.failed
		res.Metrics["setup_s"] = metric{quantile(setupS, 0.5), "s"}
		res.Metrics["txns_per_s"] = metric{quantile(tps, 0.5), "1/s"}
		res.Metrics["latency_p50_ms"] = metric{quantile(p50, 0.5), "ms"}
		res.Metrics["latency_p90_ms"] = metric{quantile(p90, 0.5), "ms"}
		res.Metrics["peak_heap_mb"] = metric{m.peakMB, "MiB"}
		fmt.Printf("metric setup_s %.4f s (median of %d set-ups)\n", quantile(setupS, 0.5), setups)
	} else {
		// Untraced and traced quarters in the order U T T U, so that a
		// drift in machine speed over the window cancels out of the
		// overhead instead of being read as it; an unmeasured eighth
		// first keeps the process's start-up transient out of the
		// first quarter.
		measure(e, nil, window/8)
		var base, m measurement
		tr.setScope(scopePath)
		for _, traced := range []bool{false, true, true, false} {
			if traced {
				m = m.merge(measure(e, tr, window/4))
			} else {
				base = base.merge(measure(e, nil, window/4))
			}
		}
		fmt.Print("untraced quarters: ")
		base.print(e.opName())
		fmt.Print("traced quarters: ")
		m.print(e.opName())
		tr.setScope(scopeProbe)
		if err := e.probe(ctx, tr); err != nil {
			fmt.Println("probe failed:", err)
			res.Correct = false
		}
		res.Attempted = base.t.attempted + m.t.attempted
		res.Failed = base.t.failed + m.t.failed
		res.Metrics = layerMetrics(tr, base, m)
		tr.printLayers(os.Stdout)
		path := filepath.Join(dir, fmt.Sprintf("trace-%s-seed%d.ndjson", name, seed))
		if err := tr.writeOut(path); err != nil {
			return fmt.Errorf("write trace: %w", err)
		}
		fmt.Println("trace written to", path)
	}
	if res.Attempted == 0 {
		return fmt.Errorf("no operation completed in the window")
	}
	res.Correct = res.Correct && res.Failed == 0
	for _, k := range sortedKeys(res.Metrics) {
		v := res.Metrics[k]
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("metric %s has no value", k)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func clientsOf(name string) int {
	if name == "mtc-e2e" {
		return 1
	}
	return clients
}

// measurement is one measured window.
type measurement struct {
	t       *tally
	elapsed time.Duration
	cpu     time.Duration // process CPU time, user + system
	peakMB  float64
}

func measure(e env, tr *tracer, d time.Duration) measurement {
	runtime.GC()
	hs := startHeapSampler()
	cpu0 := cpuTime()
	t0 := time.Now()
	t := e.run(tr, t0.Add(d))
	elapsed := time.Since(t0)
	return measurement{t: t, elapsed: elapsed, cpu: cpuTime() - cpu0, peakMB: hs.stopMB()}
}

// cpuTime returns the CPU time the process has used so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func (m measurement) tps() float64 { return float64(m.t.txns) / m.elapsed.Seconds() }

// merge pools two measured windows.
func (m measurement) merge(o measurement) measurement {
	if m.t == nil {
		return o
	}
	t := &tally{
		attempted: m.t.attempted + o.t.attempted, failed: m.t.failed + o.t.failed,
		lat: append(append([]float64(nil), m.t.lat...), o.t.lat...), txns: m.t.txns + o.t.txns,
		causes: map[string]int{},
	}
	for _, c := range []map[string]int{m.t.causes, o.t.causes} {
		for k, v := range c {
			t.causes[k] += v
		}
	}
	return measurement{t: t, elapsed: m.elapsed + o.elapsed, cpu: m.cpu + o.cpu, peakMB: max(m.peakMB, o.peakMB)}
}

func (m measurement) print(op string) {
	t := m.t
	fmt.Printf("window %.2fs attempted %d failed %d\n", m.elapsed.Seconds(), t.attempted, t.failed)
	fmt.Printf("metric error_rate %.4f (failed %d / attempted %d)\n", ratio(float64(t.failed), float64(t.attempted)), t.failed, t.attempted)
	for _, c := range sortedKeys(t.causes) {
		fmt.Printf("  failure x%d: %s\n", t.causes[c], c)
	}
	fmt.Printf("metric txns_per_s %.1f 1/s (%d committed txns verified)\n", m.tps(), t.txns)
	fmt.Printf("cpu %.2fs for the window, %.2f us per committed txn\n", m.cpu.Seconds(), ratio(float64(m.cpu.Microseconds()), float64(t.txns)))
	fmt.Printf("metric %s_p50_ms %.3f ms (n=%d)\n", op, quantile(t.lat, 0.5), len(t.lat))
	fmt.Printf("metric %s_p90_ms %.3f ms (n=%d)\n", op, quantile(t.lat, 0.9), len(t.lat))
	fmt.Printf("metric peak_heap_mb %.1f MiB\n", m.peakMB)
}

// layerMetric maps one per-layer metric to the spans or counts it is
// computed from.
type layerMetric struct {
	name, unit string
	value      func(tr *tracer) float64
}

func medianSpan(span string) func(*tracer) float64 {
	return func(tr *tracer) float64 { return quantile(tr.spanValues(span), 0.5) }
}

func countRatio(num, den string) func(*tracer) float64 {
	return func(tr *tracer) float64 {
		return ratio(tr.countSum(num), tr.countSum(den))
	}
}

func medianCount(name string) func(*tracer) float64 {
	return func(tr *tracer) float64 { return quantile(tr.countValues(name), 0.5) }
}

var layerTable = []layerMetric{
	{"workload.plan_ms", "ms", medianSpan("workload.plan")},
	{"runner.exec_ms", "ms", medianSpan("runner.exec")},
	{"kv.abort_ratio", "ratio", func(tr *tracer) float64 {
		a, c := tr.countSum("kv.aborts"), tr.countSum("kv.commits")
		return ratio(a, a+c)
	}},
	{"runner.commits_per_attempt", "ratio", countRatio("runner.committed", "runner.attempts")},
	{"api.job_decode_ms", "ms", medianSpan("api.job_decode")},
	{"history.wire_bytes_per_txn", "B/txn", countRatio("history.wire_bytes", "history.wire_txns")},
	{"history.mtcb_decode_ms", "ms", medianSpan("history.mtcb_decode")},
	{"history.index_ms", "ms", medianSpan("history.index")},
	{"history.precheck_ms", "ms", medianSpan("history.precheck")},
	{"core.derive_ms", "ms", medianSpan("core.derive")},
	{"core.edges", "count", medianCount("core.edges")},
	{"core.si_induce_ms", "ms", medianSpan("core.si_induce")},
	{"graph.cycle_ms", "ms", medianSpan("graph.cycle")},
	{"levels.profile_ms", "ms", medianSpan("levels.profile")},
	{"checker.report_encode_ms", "ms", medianSpan("checker.report_encode")},
	{"core.online_add_us", "us", func(tr *tracer) float64 {
		total := 0.0
		for _, v := range tr.spanValues("core.online_add") {
			total += v
		}
		return ratio(total*1000, tr.countSum("core.online_txns"))
	}},
	{"core.finalize_ms", "ms", medianSpan("core.finalize")},
	{"mtcserve.accept_ms", "ms", medianSpan("mtcserve.accept")},
	{"mtcserve.queue_wait_ms", "ms", medianSpan("mtcserve.queue_wait")},
	{"mtcserve.run_ms", "ms", medianSpan("mtcserve.run")},
	{"mtcserve.notify_ms", "ms", medianSpan("mtcserve.notify")},
	{"mtcserve.rejected_ratio", "ratio", countRatio("mtcserve.rejected", "mtcserve.submits")},
	{"shard.split_ms", "ms", medianSpan("shard.split")},
	{"shard.components", "count", medianCount("shard.components")},
	{"shard.largest_component_share", "ratio", medianCount("shard.largest_component_share")},
	{"shard.merge_ms", "ms", medianSpan("shard.merge")},
	{"fabric.submit_ms", "ms", medianSpan("fabric.submit")},
	{"fabric.wal_bytes_per_job", "B", countRatio("fabric.wal_bytes", "fabric.jobs")},
	{"fabric.pull_ms", "ms", medianSpan("fabric.pull")},
	{"fabric.push_ms", "ms", medianSpan("fabric.push")},
	{"session.out_of_order_share", "ratio", countRatio("session.out_of_order", "session.txns")},
}

// rootSpans pairs each workload's operation span with, for operations
// whose layers only the probe can see, the probe's equivalent root.
var rootSpans = [][2]string{
	{"e2e.round", ""},
	{"serve.job", ""},
	{"session.batch", "probe.batch"},
}

func layerMetrics(tr *tracer, base, traced measurement) map[string]metric {
	out := map[string]metric{}
	for _, lm := range layerTable {
		out[lm.name] = metric{lm.value(tr), lm.unit}
	}
	overhead := (ratio(base.tps(), traced.tps()) - 1) * 100
	out["trace.overhead_pct"] = metric{overhead, "%"}
	fmt.Printf("tracing overhead %.2f%% (txns_per_s untraced %.1f, traced %.1f)\n", overhead, base.tps(), traced.tps())
	var roots [2]string
	for _, s := range tr.spans {
		if s.Scope == scopePath && s.Parent == 0 {
			for _, r := range rootSpans {
				if r[0] == s.Name {
					roots = r
				}
			}
			break
		}
	}
	share := tr.pathAccounted(roots[0], roots[1])
	out["trace.path_accounted_share"] = metric{share, "ratio"}
	fmt.Printf("blocking path: layer self times account for %.3f of the median %s latency\n", share, roots[0])
	for _, k := range sortedKeys(out) {
		fmt.Printf("layer %s %.6g %s\n", k, out[k].Value, out[k].Unit)
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

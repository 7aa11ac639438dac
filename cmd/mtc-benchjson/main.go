// Command mtc-benchjson converts `go test -bench` output on stdin into a
// benchmark-data JSON snapshot (the format the github-action-benchmark /
// go-benchmark-data tooling consumes), so CI can append one dated file
// per run and the performance trajectory of the checkers stays
// trackable.
//
//	go test -run '^$' -bench . -benchmem . | mtc-benchjson -out BENCH_$(date +%F).json
//
// With -compare it additionally gates the run against a committed
// baseline snapshot: every ns/op benchmark present in the baseline must
// appear in the current run (a silent rename or a bench regex matching
// nothing fails the build) and must not be slower than the baseline by
// more than -tolerance (fractional; 0.25 = 25%). allocs/op entries in
// the baseline are gated too, under the tighter -alloc-tolerance —
// allocation counts are deterministic, so a hot path quietly growing a
// per-item allocation fails the build even when wall time hides it
// (requires feeding `go test -benchmem` output). Regressions exit 1 so
// the CI bench job fails. Refresh procedure: docs/ci.md.
//
//	go test -run '^$' -bench 'SER10k|SI10k' -benchtime 3x . \
//	  | mtc-benchjson -compare bench/baseline.json -tolerance 0.25
//
// With -append the snapshot is additionally appended as one NDJSON line
// to an accumulating history file, so the repository keeps a commit-by-
// commit performance log that plotting tooling can replay without
// walking git history. -benchtime names the run's iteration setting and
// is recorded in the snapshot; an append whose iteration mode (a fixed
// count, "Nx", or a duration) differs from the history's is refused,
// since a mean over 1 iteration and one over a second of iterations do
// not compare:
//
//	go test -run '^$' -bench . -benchtime 1s -benchmem . \
//	  | mtc-benchjson -benchtime 1s -append bench/history.ndjson
//
// Two history modes read that accumulating log instead of stdin (the
// -append flag names the history file; nothing is appended):
//
//	mtc-benchjson -append bench/history.ndjson -trend 4
//	mtc-benchjson -append bench/history.ndjson -render dev/bench
//
// -trend K exits 1 when any gated series (ns/op, allocs/op) present in
// each of the last K runs degraded strictly monotonically across them —
// the slow-leak gate: per-run drift that stays inside -tolerance but
// compounds run over run. -render DIR emits a self-contained static
// dashboard (index.html + data.js in the github-action-benchmark
// window.BENCHMARK_DATA shape) that CI publishes as an artifact.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Bench is one parsed benchmark result.
type Bench struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Extra string  `json:"extra,omitempty"`
}

// Snapshot is the file payload: one CI run's benchmark set.
type Snapshot struct {
	Date   string `json:"date"`
	Commit string `json:"commit,omitempty"`
	Tool   string `json:"tool"`
	// Benchtime is the run's go test -benchtime ("1s", "3x"); empty
	// when the snapshot did not record it.
	Benchtime string  `json:"benchtime,omitempty"`
	Benches   []Bench `json:"benches"`
}

// benchLine matches e.g.
// "BenchmarkBatchSER10k-8   	      24	  46519241 ns/op	 1234 B/op	  12 allocs/op"
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+([\d.]+) ns/op`)

// extraMetric matches the custom b.ReportMetric units (e.g. the
// long-stream benchmarks' "4.800 peak-heap-MB") and the allocation pair.
var extraMetric = regexp.MustCompile(`([\d.]+) (peak-heap-MB|B/op|allocs/op)`)

func main() {
	out := flag.String("out", "", "output file (default stdout)")
	commit := flag.String("commit", os.Getenv("GITHUB_SHA"), "commit id recorded in the snapshot")
	compare := flag.String("compare", "", "baseline snapshot to gate against (exit 1 on regression)")
	appendPath := flag.String("append", "", "NDJSON history file to append this snapshot to (one line per run)")
	benchtime := flag.String("benchtime", "", "the go test -benchtime of the run (e.g. 1s, 3x), recorded in the snapshot; required with -append")
	tolerance := flag.Float64("tolerance", 0.25, "allowed fractional ns/op regression vs the baseline (0.25 = 25%)")
	allocTolerance := flag.Float64("alloc-tolerance", 0.05, "allowed fractional allocs/op regression vs the baseline (counts are deterministic, so keep this tight)")
	trendK := flag.Int("trend", 0, "history mode: exit 1 when any gated benchmark in the -append history degraded strictly monotonically over the last K runs (reads no stdin)")
	render := flag.String("render", "", "history mode: render the -append history into a static dashboard (index.html + data.js) in this directory (reads no stdin)")
	flag.Parse()

	if *trendK > 0 || *render != "" {
		// History modes replay the accumulated log; they never parse a
		// bench run, so combining them with the stdin-driven flags is a
		// confused invocation, not a pipeline.
		if *appendPath == "" {
			fmt.Fprintln(os.Stderr, "mtc-benchjson: -trend/-render read the NDJSON history; name it with -append")
			os.Exit(1)
		}
		if *out != "" || *compare != "" {
			fmt.Fprintln(os.Stderr, "mtc-benchjson: -trend/-render are history modes; run -out/-compare as a separate invocation")
			os.Exit(1)
		}
		snaps, err := readSnapshots(*appendPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mtc-benchjson: %v\n", err)
			os.Exit(1)
		}
		if *trendK > 0 {
			if err := checkTrend(snaps, *trendK); err != nil {
				fmt.Fprintf(os.Stderr, "mtc-benchjson: %v\n", err)
				os.Exit(1)
			}
		}
		if *render != "" {
			if err := renderDashboard(*render, snaps); err != nil {
				fmt.Fprintf(os.Stderr, "mtc-benchjson: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("rendered %d runs to %s\n", len(snaps), *render)
		}
		return
	}

	if *benchtime != "" && iterMode(*benchtime) == "" {
		fmt.Fprintf(os.Stderr, "mtc-benchjson: -benchtime %q is neither a count (3x) nor a duration (1s)\n", *benchtime)
		os.Exit(2)
	}
	if *appendPath != "" && *benchtime == "" {
		fmt.Fprintln(os.Stderr, "mtc-benchjson: -append needs -benchtime, so the history only compares runs of one iteration mode")
		os.Exit(2)
	}
	snap := Snapshot{
		Date:      time.Now().UTC().Format(time.RFC3339),
		Commit:    *commit,
		Tool:      "go",
		Benchtime: *benchtime,
	}
	benches, err := parseBenches(os.Stdin)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mtc-benchjson: read: %v\n", err)
		os.Exit(1)
	}
	snap.Benches = benches
	if len(snap.Benches) == 0 {
		fmt.Fprintln(os.Stderr, "mtc-benchjson: no benchmark lines found on stdin")
		os.Exit(1)
	}
	if *appendPath != "" {
		n, err := appendSnapshot(*appendPath, snap)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mtc-benchjson: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("appended run %d to %s (%d benches)\n", n, *appendPath, len(snap.Benches))
	}
	if *out != "" || (*compare == "" && *appendPath == "") {
		w := os.Stdout
		var f *os.File
		if *out != "" {
			var err error
			f, err = os.Create(*out)
			if err != nil {
				fmt.Fprintf(os.Stderr, "mtc-benchjson: %v\n", err)
				os.Exit(1)
			}
			w = f
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(snap); err != nil {
			fmt.Fprintf(os.Stderr, "mtc-benchjson: %v\n", err)
			os.Exit(1)
		}
		if f != nil {
			// The snapshot feeds the regression gate: a short write
			// surfacing at close must fail the run, not pass silently.
			if err := f.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "mtc-benchjson: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("wrote %d benches to %s\n", len(snap.Benches), *out)
		}
	}
	if *compare != "" {
		if err := compareBaseline(*compare, snap, *tolerance, *allocTolerance); err != nil {
			fmt.Fprintf(os.Stderr, "mtc-benchjson: %v\n", err)
			os.Exit(1)
		}
	}
}

// parseBenches extracts benchmark results from `go test -bench` output:
// one ns/op entry per benchmark line plus derived entries for the
// allocation pair and any custom b.ReportMetric units it recognises.
func parseBenches(r io.Reader) ([]Bench, error) {
	var benches []Bench
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		v, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			continue
		}
		benches = append(benches, Bench{Name: m[1], Value: v, Unit: "ns/op", Extra: m[2] + " times"})
		for _, em := range extraMetric.FindAllStringSubmatch(line, -1) {
			val, err := strconv.ParseFloat(em[1], 64)
			if err != nil {
				continue
			}
			suffix := map[string]string{
				"peak-heap-MB": "/peak-heap-MB", "B/op": "/alloc", "allocs/op": "/allocs",
			}[em[2]]
			benches = append(benches, Bench{Name: m[1] + suffix, Value: val, Unit: em[2]})
		}
	}
	return benches, sc.Err()
}

// iterMode classifies a go test -benchtime value: "count" for a fixed
// iteration count ("3x"), "time" for a duration ("1s"), "" for neither.
func iterMode(benchtime string) string {
	if n, ok := strings.CutSuffix(benchtime, "x"); ok {
		if v, err := strconv.Atoi(n); err == nil && v > 0 {
			return "count"
		}
		return ""
	}
	if d, err := time.ParseDuration(benchtime); err == nil && d > 0 {
		return "time"
	}
	return ""
}

// appendSnapshot appends snap as one compact JSON line to the NDJSON
// history at path, creating the file on first use, and returns the
// 1-based index of the appended run. It refuses a snapshot whose
// iteration mode differs from any run already in the history (a run
// that recorded no -benchtime has a mode of its own), so -trend only
// ever compares like with like. Each line is a complete Snapshot,
// so the log keeps accumulating across commits and stays greppable and
// replayable line by line. The new content is written to a temp file in
// the same directory and renamed over path: a crash or full disk
// mid-append leaves the committed history intact instead of a torn
// final line that would poison every later read.
func appendSnapshot(path string, snap Snapshot) (int, error) {
	prior, err := readSnapshots(path) // also validates every existing line
	if err != nil {
		return 0, err
	}
	for i, p := range prior {
		if iterMode(p.Benchtime) != iterMode(snap.Benchtime) {
			return 0, fmt.Errorf("%s run %d was measured at -benchtime %q, this run at %q: iteration modes differ, refusing to append",
				path, i+1, p.Benchtime, snap.Benchtime)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return 0, err
	}
	line, err := json.Marshal(snap)
	if err != nil {
		return 0, err
	}
	if len(raw) > 0 && raw[len(raw)-1] != '\n' {
		raw = append(raw, '\n')
	}
	raw = append(raw, line...)
	raw = append(raw, '\n')
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return 0, err
	}
	if _, werr := tmp.Write(raw); werr != nil {
		_ = tmp.Close()
		_ = os.Remove(tmp.Name())
		return 0, werr
	}
	// The appended line is the durable record of this run; a close
	// error is a failed append, not a cosmetic one.
	if cerr := tmp.Close(); cerr != nil {
		_ = os.Remove(tmp.Name())
		return 0, cerr
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		_ = os.Remove(tmp.Name())
		return 0, err
	}
	return len(prior) + 1, nil
}

// readSnapshots parses an NDJSON history file, one Snapshot per line.
// A missing file is an empty history; a malformed line is an error (the
// accumulating log must never be silently truncated by a bad append).
func readSnapshots(path string) ([]Snapshot, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var snaps []Snapshot
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var s Snapshot
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			return nil, fmt.Errorf("parse %s line %d: %w", path, len(snaps)+1, err)
		}
		snaps = append(snaps, s)
	}
	return snaps, sc.Err()
}

// compareBaseline gates the current snapshot against the committed
// baseline: every ns/op and allocs/op entry of the baseline must exist
// in cur (a renamed benchmark must not silently drop out of the gate)
// and must not regress past its unit's tolerance — B/op and the custom
// metrics stay informational. Improvements and in-tolerance drift are
// reported but pass.
func compareBaseline(path string, cur Snapshot, tolerance, allocTolerance float64) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("read baseline: %w", err)
	}
	var base Snapshot
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("parse baseline %s: %w", path, err)
	}
	gated := map[string]float64{"ns/op": tolerance, "allocs/op": allocTolerance}
	type key struct{ name, unit string }
	current := make(map[key]float64, len(cur.Benches))
	for _, b := range cur.Benches {
		if _, ok := gated[b.Unit]; ok {
			current[key{b.Name, b.Unit}] = b.Value
		}
	}
	tracked, regressions, missing, allocRegressions := 0, 0, 0, 0
	for _, b := range base.Benches {
		tol, ok := gated[b.Unit]
		if !ok {
			continue // B/op, peak-heap-MB: informational only
		}
		tracked++
		got, ok := current[key{b.Name, b.Unit}]
		if !ok {
			missing++
			fmt.Fprintf(os.Stderr, "MISSING  %-40s in baseline (%.0f %s) but not in this run — renamed, or -benchmem dropped? update %s\n",
				b.Name, b.Value, b.Unit, path)
			continue
		}
		ratio := 0.0
		if b.Value > 0 {
			ratio = got/b.Value - 1
		} else if got > 0 {
			ratio = 1 // zero-alloc baseline regressed to allocating
		}
		switch {
		case ratio > tol:
			regressions++
			if b.Unit == "allocs/op" {
				allocRegressions++
			}
			fmt.Fprintf(os.Stderr, "REGRESS  %-40s %.0f -> %.0f %s (%+.1f%%, tolerance %.0f%%)\n",
				b.Name, b.Value, got, b.Unit, ratio*100, tol*100)
		default:
			fmt.Printf("ok       %-40s %.0f -> %.0f %s (%+.1f%%)\n", b.Name, b.Value, got, b.Unit, ratio*100)
		}
	}
	if allocRegressions > 0 {
		// Allocation counts are deterministic, so an allocs/op trip is a
		// source change, not noise — point at the annotation machinery
		// that localizes it.
		fmt.Fprintf(os.Stderr, "hint: allocs/op regressions usually trace to a //mtc:hotpath function growing a per-item allocation; run `go run ./cmd/mtc-lint ./...` to pinpoint the construct (docs/lint.md)\n")
	}
	if tracked == 0 {
		return fmt.Errorf("baseline %s tracks no gated benchmarks", path)
	}
	if regressions+missing > 0 {
		return fmt.Errorf("%d regression(s), %d missing benchmark(s) against %s (see docs/ci.md to refresh the baseline)",
			regressions, missing, path)
	}
	fmt.Printf("bench gate: %d entries within tolerance of %s\n", tracked, path)
	return nil
}

// checkTrend is the slow-leak gate: over the last k history runs, any
// gated series (ns/op, allocs/op) that is present in every one of them
// and degraded strictly monotonically — each run worse than the one
// before — fails the check. A single-run regression inside -tolerance
// passes the baseline gate; k of them in a row compound past it, and a
// monotone staircase is a trend, not noise. A plateau or a single dip
// resets the staircase and passes.
func checkTrend(snaps []Snapshot, k int) error {
	if k < 2 {
		return fmt.Errorf("-trend %d: a trend needs at least 2 runs", k)
	}
	if len(snaps) < k {
		fmt.Printf("trend gate: history has %d run(s), need %d — skipping\n", len(snaps), k)
		return nil
	}
	window := snaps[len(snaps)-k:]
	gated := map[string]bool{"ns/op": true, "allocs/op": true}
	type key struct{ name, unit string }
	series := make(map[key][]float64)
	for _, s := range window {
		seen := make(map[key]bool)
		for _, b := range s.Benches {
			kk := key{b.Name, b.Unit}
			if !gated[b.Unit] || seen[kk] {
				continue
			}
			seen[kk] = true
			series[kk] = append(series[kk], b.Value)
		}
	}
	keys := make([]key, 0, len(series))
	for kk, vals := range series {
		if len(vals) == k { // present in every run of the window
			keys = append(keys, kk)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].name != keys[j].name {
			return keys[i].name < keys[j].name
		}
		return keys[i].unit < keys[j].unit
	})
	degrading := 0
	for _, kk := range keys {
		vals := series[kk]
		monotone := true
		for i := 1; i < k; i++ {
			if vals[i] <= vals[i-1] {
				monotone = false
				break
			}
		}
		if !monotone {
			continue
		}
		degrading++
		steps := make([]string, k)
		for i, v := range vals {
			steps[i] = strconv.FormatFloat(v, 'f', -1, 64)
		}
		fmt.Fprintf(os.Stderr, "TREND    %-40s %s rose monotonically over the last %d runs: %v\n",
			kk.name, kk.unit, k, steps)
	}
	if degrading > 0 {
		return fmt.Errorf("%d benchmark series degrade monotonically over the last %d runs (see docs/ci.md)", degrading, k)
	}
	fmt.Printf("trend gate: no monotone degradation across the last %d runs (%d series)\n", k, len(keys))
	return nil
}

// chartData is the github-action-benchmark data.js payload: the shape
// its default dashboard reads from window.BENCHMARK_DATA, so the
// rendered history stays interchangeable with that ecosystem.
type chartData struct {
	LastUpdate int64                   `json:"lastUpdate"`
	RepoURL    string                  `json:"repoUrl"`
	Entries    map[string][]chartEntry `json:"entries"`
}

type chartEntry struct {
	Commit  chartCommit `json:"commit"`
	Date    int64       `json:"date"`
	Tool    string      `json:"tool"`
	Benches []Bench     `json:"benches"`
}

type chartCommit struct {
	ID        string `json:"id"`
	Message   string `json:"message"`
	Timestamp string `json:"timestamp"`
	URL       string `json:"url"`
}

// renderDashboard writes DIR/data.js (window.BENCHMARK_DATA in the
// github-action-benchmark shape) and DIR/index.html (a self-contained
// vanilla-JS/SVG viewer, no network dependencies) from the history.
func renderDashboard(dir string, snaps []Snapshot) error {
	if len(snaps) == 0 {
		return fmt.Errorf("history is empty; nothing to render")
	}
	repo := repoURL()
	entries := make([]chartEntry, 0, len(snaps))
	var lastUpdate int64
	for i, s := range snaps {
		ts, err := time.Parse(time.RFC3339, s.Date)
		if err != nil {
			return fmt.Errorf("history run %d: bad date %q: %w", i+1, s.Date, err)
		}
		ms := ts.UnixMilli()
		if ms > lastUpdate {
			lastUpdate = ms
		}
		commit := chartCommit{ID: s.Commit, Timestamp: s.Date}
		if commit.ID == "" {
			commit.ID = fmt.Sprintf("run-%d", i+1)
		} else if repo != "" {
			commit.URL = repo + "/commit/" + s.Commit
		}
		tool := s.Tool
		if tool == "" {
			tool = "go"
		}
		entries = append(entries, chartEntry{Commit: commit, Date: ms, Tool: tool, Benches: s.Benches})
	}
	payload, err := json.MarshalIndent(chartData{
		LastUpdate: lastUpdate,
		RepoURL:    repo,
		Entries:    map[string][]chartEntry{"Go Benchmark": entries},
	}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	dataJS := append([]byte("window.BENCHMARK_DATA = "), payload...)
	dataJS = append(dataJS, '\n')
	if err := os.WriteFile(filepath.Join(dir, "data.js"), dataJS, 0o644); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "index.html"), []byte(indexHTML), 0o644)
}

// repoURL derives the dashboard's repository link from the standard
// GitHub Actions environment; outside CI the link is simply omitted.
func repoURL() string {
	repo := os.Getenv("GITHUB_REPOSITORY")
	if repo == "" {
		return ""
	}
	server := os.Getenv("GITHUB_SERVER_URL")
	if server == "" {
		server = "https://github.com"
	}
	return server + "/" + repo
}

// indexHTML is the static viewer: one SVG line chart per benchmark
// series, drawn entirely client-side from data.js. Self-contained on
// purpose — the dashboard is published as a CI artifact and must open
// from a local file with no CDN or framework fetch.
const indexHTML = `<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>mtc benchmark trends</title>
<style>
  body { font: 14px/1.5 system-ui, sans-serif; margin: 2rem auto; max-width: 72rem; color: #222; }
  h1 { font-size: 1.4rem; }
  #meta { color: #666; }
  .chart { display: inline-block; vertical-align: top; margin: 0 1rem 1.5rem 0; }
  .chart h2 { font-size: 0.95rem; margin: 0 0 0.25rem; font-weight: 600; }
  .chart .range { color: #666; font-size: 0.8rem; }
  svg { background: #fafafa; border: 1px solid #ddd; }
  polyline { fill: none; stroke: #2a6fdb; stroke-width: 1.5; }
  circle { fill: #2a6fdb; }
</style>
</head>
<body>
<h1>mtc benchmark trends</h1>
<p id="meta"></p>
<div id="charts"></div>
<script src="data.js"></script>
<script>
(function () {
  "use strict";
  var data = window.BENCHMARK_DATA;
  if (!data) { document.getElementById("meta").textContent = "data.js missing"; return; }
  var entries = (data.entries && data.entries["Go Benchmark"]) || [];
  document.getElementById("meta").textContent =
    entries.length + " runs, last update " + new Date(data.lastUpdate).toISOString() +
    (data.repoUrl ? " — " + data.repoUrl : "");
  // Group values by series (benchmark name + unit) across runs.
  var series = {};
  entries.forEach(function (e) {
    (e.benches || []).forEach(function (b) {
      var key = b.name + " [" + b.unit + "]";
      (series[key] = series[key] || []).push({ x: e.date, y: b.value, commit: e.commit.id });
    });
  });
  var charts = document.getElementById("charts");
  var W = 320, H = 120, PAD = 8;
  Object.keys(series).sort().forEach(function (key) {
    var pts = series[key];
    var ys = pts.map(function (p) { return p.y; });
    var min = Math.min.apply(null, ys), max = Math.max.apply(null, ys);
    var span = (max - min) || 1;
    var step = pts.length > 1 ? (W - 2 * PAD) / (pts.length - 1) : 0;
    var svgNS = "http://www.w3.org/2000/svg";
    var svg = document.createElementNS(svgNS, "svg");
    svg.setAttribute("width", W); svg.setAttribute("height", H);
    var coords = pts.map(function (p, i) {
      var x = PAD + i * step;
      var y = H - PAD - ((p.y - min) / span) * (H - 2 * PAD);
      return [x, y];
    });
    var line = document.createElementNS(svgNS, "polyline");
    line.setAttribute("points", coords.map(function (c) { return c.join(","); }).join(" "));
    svg.appendChild(line);
    coords.forEach(function (c, i) {
      var dot = document.createElementNS(svgNS, "circle");
      dot.setAttribute("cx", c[0]); dot.setAttribute("cy", c[1]); dot.setAttribute("r", 2.5);
      var tip = document.createElementNS(svgNS, "title");
      tip.textContent = pts[i].commit + "\n" + new Date(pts[i].x).toISOString() + "\n" + pts[i].y;
      dot.appendChild(tip);
      svg.appendChild(dot);
    });
    var div = document.createElement("div");
    div.className = "chart";
    var h2 = document.createElement("h2");
    h2.textContent = key;
    var range = document.createElement("div");
    range.className = "range";
    range.textContent = "min " + min + " — max " + max + " (latest " + ys[ys.length - 1] + ")";
    div.appendChild(h2); div.appendChild(svg); div.appendChild(range);
    charts.appendChild(div);
  });
})();
</script>
</body>
</html>
`

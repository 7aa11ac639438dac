package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const benchOutput = `goos: linux
goarch: amd64
pkg: mtc
BenchmarkBatchSER10k-8   	      24	  46519241 ns/op	 1234 B/op	  12 allocs/op
BenchmarkBatchSI10k-8    	      20	  52519241 ns/op
BenchmarkProfile10k-8    	      18	  61211100 ns/op	 4.800 peak-heap-MB
PASS
ok  	mtc	4.2s
`

// TestParseBenches covers the -bench output parser: the ns/op entry per
// line plus the derived allocation and custom-metric entries.
func TestParseBenches(t *testing.T) {
	benches, err := parseBenches(strings.NewReader(benchOutput))
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Bench{}
	for _, b := range benches {
		byName[b.Name] = b
	}
	if len(benches) != 6 {
		t.Fatalf("parsed %d benches, want 6: %+v", len(benches), benches)
	}
	if b := byName["BenchmarkBatchSER10k"]; b.Value != 46519241 || b.Unit != "ns/op" || b.Extra != "24 times" {
		t.Fatalf("SER bench: %+v", b)
	}
	if b := byName["BenchmarkBatchSER10k/allocs"]; b.Value != 12 || b.Unit != "allocs/op" {
		t.Fatalf("allocs entry: %+v", b)
	}
	if b := byName["BenchmarkProfile10k/peak-heap-MB"]; b.Value != 4.8 {
		t.Fatalf("custom metric entry: %+v", b)
	}
}

// TestAppendRoundTrip appends two snapshots to a fresh NDJSON history
// and reads them back, checking nothing is lost or reordered.
func TestAppendRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "history.ndjson")
	benches, err := parseBenches(strings.NewReader(benchOutput))
	if err != nil {
		t.Fatal(err)
	}
	runs := []Snapshot{
		{Date: "2026-08-07T00:00:00Z", Commit: "aaaa", Tool: "go", Benches: benches},
		{Date: "2026-08-08T00:00:00Z", Commit: "bbbb", Tool: "go", Benches: benches[:2]},
	}
	for i, s := range runs {
		n, err := appendSnapshot(path, s)
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		if n != i+1 {
			t.Fatalf("append %d reported run %d", i, n)
		}
	}
	got, err := readSnapshots(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(runs) {
		t.Fatalf("read back %d snapshots, want %d", len(got), len(runs))
	}
	for i := range runs {
		if got[i].Commit != runs[i].Commit || got[i].Date != runs[i].Date {
			t.Fatalf("snapshot %d header drifted: %+v", i, got[i])
		}
		if len(got[i].Benches) != len(runs[i].Benches) {
			t.Fatalf("snapshot %d has %d benches, want %d", i, len(got[i].Benches), len(runs[i].Benches))
		}
		for j, b := range runs[i].Benches {
			if got[i].Benches[j] != b {
				t.Fatalf("snapshot %d bench %d: got %+v want %+v", i, j, got[i].Benches[j], b)
			}
		}
	}
	// A missing file is an empty history, not an error.
	empty, err := readSnapshots(filepath.Join(t.TempDir(), "absent.ndjson"))
	if err != nil || empty != nil {
		t.Fatalf("missing file: %v %v", empty, err)
	}
}

// TestAppendAtomic pins the temp-file + rename discipline: appends
// leave no temp droppings behind, and an append refused because the
// existing history is corrupt leaves the file byte-identical (the
// rewrite must never destroy the log it could not parse).
func TestAppendAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "history.ndjson")
	snap := Snapshot{Date: "2026-08-07T00:00:00Z", Commit: "aaaa", Tool: "go",
		Benches: []Bench{{Name: "BenchmarkX", Unit: "ns/op", Value: 100}}}
	for i := 0; i < 3; i++ {
		if _, err := appendSnapshot(path, snap); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	names, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0].Name() != "history.ndjson" {
		t.Fatalf("append left temp files behind: %v", names)
	}

	// Corrupt history: the append must fail without touching the file.
	bad := filepath.Join(dir, "bad.ndjson")
	if err := os.WriteFile(bad, []byte("{not json}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := appendSnapshot(bad, snap); err == nil {
		t.Fatal("append to a corrupt history succeeded")
	}
	raw, err := os.ReadFile(bad)
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != "{not json}\n" {
		t.Fatalf("failed append modified the corrupt history: %q", raw)
	}
}

// TestAppendRefusesIterationModeMix pins the like-with-like rule of the
// history: runs at different durations (or different counts) append,
// a count-mode run onto a time-mode history (or onto runs that recorded
// no -benchtime) is refused and leaves the file untouched.
func TestAppendRefusesIterationModeMix(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "history.ndjson")
	snap := func(benchtime string) Snapshot {
		return Snapshot{Date: "2026-08-07T00:00:00Z", Commit: "aaaa", Tool: "go", Benchtime: benchtime,
			Benches: []Bench{{Name: "BenchmarkX", Unit: "ns/op", Value: 100}}}
	}
	for _, bt := range []string{"1s", "2500ms"} {
		if _, err := appendSnapshot(path, snap(bt)); err != nil {
			t.Fatalf("append at -benchtime %s: %v", bt, err)
		}
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, bt := range []string{"3x", ""} {
		if _, err := appendSnapshot(path, snap(bt)); err == nil || !strings.Contains(err.Error(), "iteration modes differ") {
			t.Fatalf("append at -benchtime %q onto a time-mode history: %v", bt, err)
		}
	}
	if after, _ := os.ReadFile(path); string(after) != string(before) {
		t.Fatal("a refused append modified the history")
	}

	legacy := filepath.Join(dir, "legacy.ndjson")
	if _, err := appendSnapshot(legacy, snap("")); err != nil {
		t.Fatal(err)
	}
	if _, err := appendSnapshot(legacy, snap("1s")); err == nil {
		t.Fatal("a time-mode run appended onto a history that never recorded its mode")
	}

	for bt, want := range map[string]string{"1s": "time", "250ms": "time", "3x": "count", "100x": "count",
		"": "", "0x": "", "x": "", "fast": "", "-1s": ""} {
		if got := iterMode(bt); got != want {
			t.Errorf("iterMode(%q) = %q, want %q", bt, got, want)
		}
	}
}

// trendSnaps builds a history whose BenchmarkLeak ns/op series follows
// vals, with a stable control series alongside.
func trendSnaps(vals ...float64) []Snapshot {
	snaps := make([]Snapshot, len(vals))
	for i, v := range vals {
		snaps[i] = Snapshot{
			Date: "2026-08-07T00:00:00Z", Commit: "c", Tool: "go",
			Benches: []Bench{
				{Name: "BenchmarkLeak", Unit: "ns/op", Value: v},
				{Name: "BenchmarkSteady", Unit: "ns/op", Value: 500},
				{Name: "BenchmarkLeak/alloc", Unit: "B/op", Value: v}, // not gated
			},
		}
	}
	return snaps
}

// TestTrendGate covers the slow-leak gate: a strictly monotone rise
// over the window trips it, a plateau or dip resets it, short histories
// and series absent from part of the window are skipped.
func TestTrendGate(t *testing.T) {
	// Each step is +5% — inside any per-run tolerance, but monotone.
	if err := checkTrend(trendSnaps(100, 105, 110, 116), 4); err == nil {
		t.Fatal("monotone ns/op staircase passed the trend gate")
	} else if !strings.Contains(err.Error(), "1 benchmark series") {
		t.Fatalf("trend error does not count the series: %v", err)
	}
	// Only the last K runs matter: an old staircase outside the window
	// is forgiven once the latest run dips.
	if err := checkTrend(trendSnaps(100, 105, 110, 116, 90), 4); err != nil {
		t.Fatalf("dip in the window still tripped: %v", err)
	}
	// A plateau is not a degradation (equal values break strictness).
	if err := checkTrend(trendSnaps(100, 105, 105, 116), 4); err != nil {
		t.Fatalf("plateau tripped the gate: %v", err)
	}
	// Too little history: pass, never fail a young repo.
	if err := checkTrend(trendSnaps(100, 105), 4); err != nil {
		t.Fatalf("short history tripped: %v", err)
	}
	// allocs/op is gated too.
	snaps := trendSnaps(100, 100, 100, 100)
	for i := range snaps {
		snaps[i].Benches = append(snaps[i].Benches,
			Bench{Name: "BenchmarkLeak/allocs", Unit: "allocs/op", Value: float64(i + 1)})
	}
	if err := checkTrend(snaps, 4); err == nil {
		t.Fatal("monotone allocs/op staircase passed")
	}
	// A series missing from one run of the window is not comparable and
	// must not trip (nor crash) the gate.
	snaps = trendSnaps(100, 105, 110, 116)
	snaps[1].Benches = snaps[1].Benches[1:] // drop BenchmarkLeak from run 2
	if err := checkTrend(snaps, 4); err != nil {
		t.Fatalf("partially-present series tripped: %v", err)
	}
	// Degenerate window sizes are usage errors, not silent passes.
	if err := checkTrend(trendSnaps(100, 105), 1); err == nil {
		t.Fatal("-trend 1 accepted")
	}
}

// TestRenderDashboard renders a small history and checks the data.js
// payload parses back into the github-action-benchmark shape and the
// static index is self-contained.
func TestRenderDashboard(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "dev", "bench")
	snaps := []Snapshot{
		{Date: "2026-08-06T10:00:00Z", Commit: "aaaa", Tool: "go",
			Benches: []Bench{{Name: "BenchmarkX", Unit: "ns/op", Value: 100, Extra: "24 times"}}},
		{Date: "2026-08-07T10:00:00Z", Commit: "bbbb", Tool: "go",
			Benches: []Bench{{Name: "BenchmarkX", Unit: "ns/op", Value: 90}}},
	}
	if err := renderDashboard(dir, snaps); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "data.js"))
	if err != nil {
		t.Fatal(err)
	}
	const prefix = "window.BENCHMARK_DATA = "
	if !strings.HasPrefix(string(raw), prefix) {
		t.Fatalf("data.js does not assign window.BENCHMARK_DATA: %.60q", raw)
	}
	var data chartData
	if err := json.Unmarshal(raw[len(prefix):], &data); err != nil {
		t.Fatalf("data.js payload is not JSON: %v", err)
	}
	entries := data.Entries["Go Benchmark"]
	if len(entries) != 2 {
		t.Fatalf("entries: %+v", data.Entries)
	}
	if entries[0].Commit.ID != "aaaa" || entries[1].Commit.ID != "bbbb" {
		t.Fatalf("commit ids drifted: %+v", entries)
	}
	if entries[0].Tool != "go" || entries[0].Date == 0 || entries[1].Date <= entries[0].Date {
		t.Fatalf("entry headers: %+v", entries)
	}
	if data.LastUpdate != entries[1].Date {
		t.Fatalf("lastUpdate %d, want %d", data.LastUpdate, entries[1].Date)
	}
	if len(entries[0].Benches) != 1 || entries[0].Benches[0] != snaps[0].Benches[0] {
		t.Fatalf("benches drifted: %+v", entries[0].Benches)
	}
	html, err := os.ReadFile(filepath.Join(dir, "index.html"))
	if err != nil {
		t.Fatal(err)
	}
	page := string(html)
	if !strings.Contains(page, `src="data.js"`) || !strings.Contains(page, "BENCHMARK_DATA") {
		t.Fatal("index.html does not load data.js")
	}
	if strings.Contains(page, "https://cdn") || strings.Contains(page, "http://cdn") {
		t.Fatal("index.html pulls from a CDN; the artifact must be self-contained")
	}
	// Empty history: refuse rather than render a blank dashboard.
	if err := renderDashboard(t.TempDir(), nil); err == nil {
		t.Fatal("empty history rendered")
	}
}

// compareStderr runs compareBaseline with stderr captured, returning
// the gate's error and everything it printed there.
func compareStderr(t *testing.T, base Snapshot, cur Snapshot) (error, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "baseline.json")
	raw, err := json.Marshal(base)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stderr
	os.Stderr = w
	gateErr := compareBaseline(path, cur, 0.25, 0.05)
	os.Stderr = old
	w.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return gateErr, string(out)
}

// TestCompareBaselineAllocHint checks that an allocs/op regression
// prints the source-annotation hint pointing at mtc-lint's //mtc:hotpath
// machinery, and that a pure ns/op regression does not (timing noise
// has nothing to do with allocation annotations).
func TestCompareBaselineAllocHint(t *testing.T) {
	base := Snapshot{Benches: []Bench{
		{Name: "BenchmarkBatchSER10k", Unit: "ns/op", Value: 1000},
		{Name: "BenchmarkBatchSER10k/allocs", Unit: "allocs/op", Value: 9},
	}}
	regressed := Snapshot{Benches: []Bench{
		{Name: "BenchmarkBatchSER10k", Unit: "ns/op", Value: 1000},
		{Name: "BenchmarkBatchSER10k/allocs", Unit: "allocs/op", Value: 40},
	}}
	err, stderr := compareStderr(t, base, regressed)
	if err == nil {
		t.Fatal("allocs/op regression passed the gate")
	}
	if !strings.Contains(stderr, "mtc:hotpath") || !strings.Contains(stderr, "cmd/mtc-lint") {
		t.Fatalf("allocs regression did not print the mtc-lint hint:\n%s", stderr)
	}

	slow := Snapshot{Benches: []Bench{
		{Name: "BenchmarkBatchSER10k", Unit: "ns/op", Value: 9000},
		{Name: "BenchmarkBatchSER10k/allocs", Unit: "allocs/op", Value: 9},
	}}
	err, stderr = compareStderr(t, base, slow)
	if err == nil {
		t.Fatal("ns/op regression passed the gate")
	}
	if strings.Contains(stderr, "mtc:hotpath") {
		t.Fatalf("ns/op-only regression printed the allocation hint:\n%s", stderr)
	}
}

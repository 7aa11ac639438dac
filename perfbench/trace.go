package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// Span scopes. Path spans belong to the operations of the measured
// window; setup spans to corpus generation and the reference oracle;
// probe spans to the layer replay run after the traced window, which
// times on this workload's own inputs the layers its entry point calls
// internally (where the benchmark cannot wrap the call from outside).
const (
	scopePath  = "path"
	scopeSetup = "setup"
	scopeProbe = "probe"
)

// span is one timed call at a layer boundary. Spans of one operation
// share Op; Parent is the id of the span that caused it (0 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     string `json:"op"`
	Scope  string `json:"scope"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// count is one counter sample taken at a layer boundary.
type count struct {
	Op    string  `json:"op"`
	Scope string  `json:"scope"`
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// tracer keeps spans and counts in memory until the run ends. A nil
// tracer is tracing switched off: every method is a no-op, so the timed
// run pays one nil check per boundary.
type tracer struct {
	mu     sync.Mutex
	epoch  time.Time
	scope  string
	spans  []span
	counts []count
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), scope: scopeSetup} }

// setScope labels the spans and counts recorded from now on.
func (t *tracer) setScope(scope string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.scope = scope
	t.mu.Unlock()
}

// begin opens a span and returns its id; end closes it.
func (t *tracer) begin(op string, parent int, name string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Scope: t.scope, Name: name, Start: now, End: now})
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// add records a span whose bounds were observed elsewhere, such as the
// server's job timestamps.
func (t *tracer) add(op string, parent int, name string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Scope: t.scope, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()})
	return id
}

// do times fn as a span.
func (t *tracer) do(op string, parent int, name string, fn func()) {
	id := t.begin(op, parent, name)
	fn()
	t.end(id)
}

func (t *tracer) count(op, name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts = append(t.counts, count{Op: op, Scope: t.scope, Name: name, Value: v})
	t.mu.Unlock()
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover, indexed by span id - 1.
func (t *tracer) selfTimes() []time.Duration {
	kids := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(a, b int) bool { return cs[a].Start < cs[b].Start })
		covered, reach := int64(0), s.Start
		for _, c := range cs {
			lo, hi := max(c.Start, reach), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = s.dur() - time.Duration(covered)
	}
	return self
}

// layerStat summarises the spans of one name within one scope.
type layerStat struct {
	Scope    string
	Name     string
	N        int
	MedianMs float64
	SelfMs   float64 // median self time
	TotalMs  float64 // summed self time
}

func (t *tracer) layerStats() []layerStat {
	self := t.selfTimes()
	type key struct{ scope, name string }
	durs := map[key][]float64{}
	selfs := map[key][]float64{}
	for i, s := range t.spans {
		k := key{s.Scope, s.Name}
		durs[k] = append(durs[k], ms(s.dur()))
		selfs[k] = append(selfs[k], ms(self[i]))
	}
	out := make([]layerStat, 0, len(durs))
	for k, d := range durs {
		total := 0.0
		for _, v := range selfs[k] {
			total += v
		}
		out = append(out, layerStat{Scope: k.scope, Name: k.name, N: len(d),
			MedianMs: quantile(d, 0.5), SelfMs: quantile(selfs[k], 0.5), TotalMs: total})
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Scope != out[b].Scope {
			return out[a].Scope < out[b].Scope
		}
		return out[a].Name < out[b].Name
	})
	return out
}

// spanValues returns the durations in ms of the spans named name,
// preferring the measured window's spans and falling back to the setup
// and probe spans when the workload's path does not call the layer.
func (t *tracer) spanValues(name string) []float64 {
	var path, other []float64
	for _, s := range t.spans {
		if s.Name != name {
			continue
		}
		if s.Scope == scopePath {
			path = append(path, ms(s.dur()))
		} else {
			other = append(other, ms(s.dur()))
		}
	}
	if len(path) > 0 {
		return path
	}
	return other
}

// countSum sums the counter name with the same path-first preference.
func (t *tracer) countSum(name string) float64 {
	sum := 0.0
	for _, v := range t.countValues(name) {
		sum += v
	}
	return sum
}

// countValues returns the samples of the counter name with the same
// path-first preference.
func (t *tracer) countValues(name string) []float64 {
	var path, other []float64
	for _, c := range t.counts {
		if c.Name != name {
			continue
		}
		if c.Scope == scopePath {
			path = append(path, c.Value)
		} else {
			other = append(other, c.Value)
		}
	}
	if len(path) > 0 {
		return path
	}
	return other
}

// pathAccounted is the share of the median path-operation latency that
// the median per-operation self times of the layers below the root
// explain. Operations whose entry point hides its layers (a session
// batch is one SDK round trip) are decomposed by the probe's replay of
// the same frames instead, rooted at probeRoot.
func (t *tracer) pathAccounted(root, probeRoot string) float64 {
	self := t.selfTimes()
	byID := make(map[int]int, len(t.spans)) // span id -> root span id
	var rootDur []float64
	perName := map[string]map[int]float64{} // layer -> root id -> self ms
	rootsWithKids := map[int]bool{}
	for i, s := range t.spans {
		if s.Scope == scopePath && s.Name == root && s.Parent == 0 {
			byID[s.ID] = s.ID
			rootDur = append(rootDur, ms(s.dur()))
			continue
		}
		r, ok := byID[s.Parent]
		if !ok {
			continue
		}
		byID[s.ID] = r
		rootsWithKids[r] = true
		if perName[s.Name] == nil {
			perName[s.Name] = map[int]float64{}
		}
		perName[s.Name][r] += ms(self[i])
	}
	if len(rootDur) == 0 {
		return 0
	}
	sum := 0.0
	if len(rootsWithKids) > 0 {
		for _, m := range perName {
			vals := make([]float64, 0, len(byID))
			for r := range rootsWithKids {
				vals = append(vals, m[r])
			}
			sum += quantile(vals, 0.5)
		}
	} else {
		for _, st := range t.layerStats() {
			if st.Scope == scopeProbe && st.Name != probeRoot && t.childOf(st.Name, probeRoot) {
				sum += st.SelfMs
			}
		}
	}
	return sum / quantile(rootDur, 0.5)
}

// childOf reports whether spans named name are children of spans named
// parent.
func (t *tracer) childOf(name, parent string) bool {
	for _, s := range t.spans {
		if s.Name == name && s.Parent != 0 {
			return t.spans[s.Parent-1].Name == parent
		}
	}
	return false
}

// writeOut dumps every span and count as NDJSON, one record a line.
func (t *tracer) writeOut(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(struct {
			Kind string `json:"kind"`
			span
		}{"span", s}); err != nil {
			f.Close()
			return err
		}
	}
	for _, c := range t.counts {
		if err := enc.Encode(struct {
			Kind string `json:"kind"`
			count
		}{"count", c}); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printLayers writes the per-layer self-time table.
func (t *tracer) printLayers(w io.Writer) {
	fmt.Fprintf(w, "%-6s %-30s %7s %11s %11s %11s\n", "scope", "span", "n", "median_ms", "self_ms", "self_tot_ms")
	for _, st := range t.layerStats() {
		fmt.Fprintf(w, "%-6s %-30s %7d %11.3f %11.3f %11.1f\n", st.Scope, st.Name, st.N, st.MedianMs, st.SelfMs, st.TotalMs)
	}
}

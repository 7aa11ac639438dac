package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"runtime"
	"sort"

	"mtc/internal/checker"
	"mtc/internal/core"
	"mtc/internal/faults"
	"mtc/internal/graph"
	"mtc/internal/history"
	"mtc/internal/kv"
	"mtc/internal/levels"
	"mtc/internal/runner"
	"mtc/internal/shard"
	"mtc/internal/workload"
)

// Plan sizes, over planSessions sessions and zipfObjects keys. Served
// histories keep committed transactions only, so that their size is
// fixed by the plan rather than by how many attempts the run's
// scheduling happened to abort: a job history is ~12k transactions. A
// session stream is ~2k: the online engine's cost per transaction on
// out-of-order arrival grows with the stream and, past a few thousand
// transactions, swings by 2x from one history to the next, so streams
// are kept short and many. An mtc-e2e round keeps its aborted attempts,
// as the runner records them, and plans a fifth of a job history per
// store, so that a window holds hundreds of rounds (enough samples for
// a p90).
const (
	planSessions         = 8
	jobTxnsPerSession    = 1500
	streamTxnsPerSession = 250
	roundTxnsPerSession  = 300
	zipfObjects          = 200
	retries              = 8
	tenants              = 8 // key-disjoint tenant groups of the sharded job
)

// verdict is what the oracle compares: the verdict, the level it is
// about, the strongest level (profile runs only) and the kind of the
// first witness ("" when OK).
type verdict struct {
	OK        bool
	Level     string
	Strongest string
	Kind      string
}

func (v verdict) String() string {
	s := fmt.Sprintf("ok=%t level=%s", v.OK, v.Level)
	if v.Strongest != "" {
		s += " strongest=" + v.Strongest
	}
	if v.Kind != "" {
		s += " kind=" + v.Kind
	}
	return s
}

func verdictOfResult(r core.Result) verdict {
	v := verdict{OK: r.OK, Level: string(r.Level)}
	switch {
	case r.OK:
	case len(r.Anomalies) > 0:
		v.Kind = r.Anomalies[0].Kind.String()
	case r.Divergence != nil:
		v.Kind = "DIVERGENCE"
	default:
		v.Kind = "cycle"
	}
	return v
}

func verdictOfReport(r *checker.Report) verdict {
	if r == nil {
		return verdict{Kind: "missing report"}
	}
	v := verdict{OK: r.OK, Level: string(r.Level), Strongest: string(r.StrongestLevel)}
	switch {
	case r.OK:
	case len(r.Anomalies) > 0:
		v.Kind = r.Anomalies[0].Kind.String()
	case len(r.Cycle) > 0:
		v.Kind = "cycle"
	default:
		v.Kind = "DIVERGENCE"
	}
	return v
}

// entry is one corpus history with the job that checks it and the
// reference verdict the setup oracle computed for it.
type entry struct {
	name      string
	checker   string
	level     core.Level
	h         *history.History
	committed int
	shard     int // the job's shard option; > 0 routes it through the sharded wrapper
	ref       verdict
	hash      string
}

func (e *entry) describe(w io.Writer) {
	fmt.Fprintf(w, "corpus %-18s txns=%d committed=%d sha256=%s ref{%s}\n",
		e.name, len(e.h.Txns), e.committed, e.hash, e.ref)
}

// contentHash identifies a history by its MTCB encoding.
func contentHash(h *history.History) (string, error) {
	sum := sha256.New()
	if err := history.WriteMTCB(sum, h); err != nil {
		return "", fmt.Errorf("hash history: %w", err)
	}
	return hex.EncodeToString(sum.Sum(nil))[:16], nil
}

func committedOf(h *history.History) int {
	n := 0
	start := 0
	if h.HasInit {
		start = 1
	}
	for _, t := range h.Txns[start:] {
		if t.Committed {
			n++
		}
	}
	return n
}

// genSpec describes one generated history.
type genSpec struct {
	seed        int64
	txns        int // planned transactions per session
	tenants     int
	mode        kv.Mode
	bug         string // faults preset name; "" for a correct store
	dropAborted bool
}

// plan draws a workload plan; it is a pure function of the seed.
func plan(tr *tracer, op string, parent int, g genSpec) *workload.Workload {
	var w *workload.Workload
	tr.do(op, parent, "workload.plan", func() {
		w = workload.GenerateMT(workload.MTConfig{
			Sessions: planSessions, Txns: g.txns, Objects: zipfObjects,
			Dist: workload.Zipfian, Seed: g.seed, ReadOnlyFrac: 0.25, Tenants: g.tenants,
		})
	})
	return w
}

// execute runs a plan on a fresh kv store through the runner and
// returns the history, which also depends on goroutine scheduling.
func execute(tr *tracer, op string, parent int, w *workload.Workload, g genSpec) (*runner.Result, error) {
	store := kv.NewStore(g.mode)
	if g.bug != "" {
		b := faults.BugByName(g.bug)
		if b == nil {
			return nil, fmt.Errorf("unknown bug preset %q", g.bug)
		}
		f := b.Faults
		f.Seed = g.seed
		store = kv.NewFaultyStore(b.Mode, f)
	}
	var res *runner.Result
	tr.do(op, parent, "runner.exec", func() {
		res = runner.Run(store, w, runner.Config{Retries: retries, DropAborted: g.dropAborted})
	})
	st := store.Stats()
	tr.count(op, "kv.commits", float64(st.Commits.Load()))
	tr.count(op, "kv.aborts", float64(st.Aborts.Load()))
	tr.count(op, "runner.committed", float64(res.Committed))
	tr.count(op, "runner.attempts", float64(res.Attempts))
	return res, nil
}

// refMode selects how the setup oracle computes a reference verdict.
type refMode int

const (
	refCore    refMode = iota // core.Check at the entry's level
	refProfile                // levels.Profile, read at the entry's level
	refSharded                // shard.Check over the mtc engine
)

// newEntry generates a history and computes its reference verdict.
func newEntry(ctx context.Context, tr *tracer, name string, lvl core.Level, ref refMode, g genSpec) (*entry, error) {
	op := "setup-" + name
	root := tr.begin(op, 0, "setup.corpus")
	defer tr.end(root)
	res, err := execute(tr, op, root, plan(tr, op, root, g), g)
	if err != nil {
		return nil, err
	}
	return makeEntry(ctx, tr, op, root, name, lvl, ref, res.H)
}

// makeEntry computes h's reference verdict by calling the engines
// directly — never through the entry point under test.
func makeEntry(ctx context.Context, tr *tracer, op string, parent int, name string, lvl core.Level, ref refMode, h *history.History) (*entry, error) {
	e := &entry{name: name, checker: "mtc", level: lvl, h: h, committed: committedOf(h)}
	var err error
	if e.hash, err = contentHash(h); err != nil {
		return nil, err
	}
	switch ref {
	case refProfile:
		e.checker = "profile"
		prof, err := levels.Profile(ctx, h, levels.Options{})
		if err != nil {
			return nil, fmt.Errorf("reference profile of %s: %w", name, err)
		}
		rep := checker.ReportFromProfile("profile", lvl, prof)
		e.ref = verdictOfReport(&rep)
	case refSharded:
		c, err := checker.Lookup("mtc")
		if err != nil {
			return nil, err
		}
		e.shard = min(2, runtime.GOMAXPROCS(0))
		rep, err := shard.Check(ctx, c, h, checker.Options{Level: lvl, Shard: e.shard})
		if err != nil {
			return nil, fmt.Errorf("reference sharded check of %s: %w", name, err)
		}
		e.ref = verdictOfReport(&rep)
	default:
		e.ref = verdictOfResult(core.Check(h, lvl))
	}
	if tr != nil {
		// The traced setup also derives the verdict layer by layer, so
		// the layers the served path hides get setup spans, and the
		// decomposition is itself held to the engine's answer.
		got := checkLayered(ctx, tr, op, parent, h, lvl, ref == refProfile)
		if got.OK != e.ref.OK || got.Level != e.ref.Level {
			return nil, fmt.Errorf("layered check of %s gave %s, engine gave %s", name, got, e.ref)
		}
	}
	return e, nil
}

// checkLayered decides h at lvl through the public functions the batch
// engine composes — index, pre-check, dependency derivation, SI
// induction, cycle search — each timed as its own span. With profile
// set it runs levels.ProfileIndexed on the same index instead and
// reports the profile's verdict at lvl.
func checkLayered(ctx context.Context, tr *tracer, op string, parent int, h *history.History, lvl core.Level, profile bool) verdict {
	id := tr.begin(op, parent, "checker.check")
	defer tr.end(id)
	var ix *history.Index
	tr.do(op, id, "history.index", func() { ix = history.NewIndex(h) })
	if profile {
		var prof *levels.Report
		var err error
		tr.do(op, id, "levels.profile", func() { prof, err = levels.ProfileIndexed(ctx, ix, levels.Options{}) })
		if err != nil {
			return verdict{Kind: "profile error: " + err.Error()}
		}
		rep := checker.ReportFromProfile("profile", lvl, prof)
		return verdictOfReport(&rep)
	}
	var anomalies []history.Anomaly
	tr.do(op, id, "history.precheck", func() { anomalies = history.CheckInternalIndexed(ix) })
	if len(anomalies) > 0 {
		return verdictOfResult(core.Result{Level: lvl, Anomalies: anomalies})
	}
	var g *graph.Graph
	var divs []core.Divergence
	tr.do(op, id, "core.derive", func() { g, divs = coreGraph(ix) })
	tr.count(op, "core.edges", float64(g.NumEdges()))
	res := core.Result{Level: lvl, NumTxns: len(h.Txns), NumEdges: g.NumEdges()}
	search := g
	if lvl == core.SI {
		if len(divs) > 0 {
			res.Divergence = &divs[0]
			return verdictOfResult(res)
		}
		tr.do(op, id, "core.si_induce", func() { search, _ = core.InduceSI(g) })
	}
	tr.do(op, id, "graph.cycle", func() { res.Cycle = search.FindCycle() })
	res.OK = res.Cycle == nil
	return verdictOfResult(res)
}

// commitOrder returns h's non-init committed transactions sorted by
// commit (finish) time.
func commitOrder(h *history.History) []history.Txn {
	var out []history.Txn
	for i, t := range h.Txns {
		if (h.HasInit && i == 0) || !t.Committed {
			continue
		}
		out = append(out, t)
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].Finish < out[b].Finish })
	return out
}

// initKeys returns the keys h's initial transaction writes.
func initKeys(h *history.History) []history.Key {
	if !h.HasInit {
		return nil
	}
	keys := make([]history.Key, 0, len(h.Txns[0].Ops))
	for _, op := range h.Txns[0].Ops {
		keys = append(keys, op.Key)
	}
	return keys
}

// chunk splits txns into frames of at most n.
func chunk(txns []history.Txn, n int) [][]history.Txn {
	var out [][]history.Txn
	for len(txns) > 0 {
		k := min(n, len(txns))
		out = append(out, txns[:k])
		txns = txns[k:]
	}
	return out
}

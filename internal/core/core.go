// Package core implements the paper's primary contribution: the MTC
// verification algorithms for strong isolation levels over mini-transaction
// histories (Section IV).
//
//   - BuildDependency constructs the (nearly unique) dependency graph of an
//     MT history in O(n), exploiting the read-modify-write pattern and
//     unique values (Algorithm 1, with the Section IV-C optimization that
//     drops the WW transitive-closure step).
//   - CheckSER and CheckSI decide serializability and snapshot isolation in
//     Θ(n); CheckSI detects the DIVERGENCE pattern early (Definition 10).
//   - CheckSSER decides strict serializability in Θ(n²) by enumerating the
//     real-time order, with an optional sparse time-chain encoding that
//     brings the graph back to O(n log n) work (an ablation the paper
//     leaves implicit).
//   - VLLWT (in lwt.go) verifies linearizability of lightweight-transaction
//     histories in expected O(n) time (Algorithm 2).
//
// All checkers are sound and complete for MT histories with unique values;
// they pre-check the intra-transactional and G1 anomalies of Figure 5a-5g
// exactly as footnote 1 of the paper prescribes.
package core

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"mtc/internal/graph"
	"mtc/internal/history"
)

// Level names an isolation level. This package's own engines check the
// strong levels (SI and up); the weak rungs are evaluated by
// internal/levels over the same dependency graph.
type Level string

// The supported isolation levels, strongest first.
const (
	SSER   Level = "SSER"   // strict serializability
	SER    Level = "SER"    // serializability
	SI     Level = "SI"     // snapshot isolation
	CAUSAL Level = "CAUSAL" // causal consistency (checked by internal/levels)
	RA     Level = "RA"     // read atomic (checked by internal/levels)
	RC     Level = "RC"     // read committed (checked by internal/levels)
)

// Lattice returns every supported level in lattice order, weakest first:
// RC < RA < CAUSAL < SI < SER < SSER. The chain is total for the levels
// this repository checks (session guarantees are a separate axis).
func Lattice() []Level { return []Level{RC, RA, CAUSAL, SI, SER, SSER} }

// LatticeRank orders the lattice: 0 for RC up to 5 for SSER, -1 for any
// other name (including the profile report's "NONE" pseudo-level).
// Sharded merging and the profile walk compare rungs through it.
func LatticeRank(l Level) int {
	switch l {
	case RC:
		return 0
	case RA:
		return 1
	case CAUSAL:
		return 2
	case SI:
		return 3
	case SER:
		return 4
	case SSER:
		return 5
	}
	return -1
}

// Divergence is a witness of the DIVERGENCE pattern (Definition 10): two
// distinct committed transactions Reader1 and Reader2 both read the value
// of Key written by Writer and then write different values to Key.
type Divergence struct {
	Key              history.Key
	Writer           int
	Reader1, Reader2 int
}

// String renders the witness.
func (d Divergence) String() string {
	return fmt.Sprintf("DIVERGENCE on %s: T%d and T%d both read T%d's write and update it",
		d.Key, d.Reader1, d.Reader2, d.Writer)
}

// Result is the verdict of a checker run, with a counterexample when the
// history violates the level.
type Result struct {
	Level      Level
	OK         bool
	Anomalies  []history.Anomaly // non-empty iff the pre-check failed
	Divergence *Divergence       // non-nil iff CheckSI rejected via Definition 10
	Cycle      []graph.Edge      // non-empty iff a forbidden cycle was found
	// Stats, filled on every run.
	NumTxns  int
	NumEdges int
	// Windowed-mode stats (zero when checking unbounded): how many
	// settled transactions Incremental.Compact collapsed, over how many
	// compaction epochs.
	CompactedTxns   int
	CompactedEpochs int
}

// Explain renders a human-readable account of the verdict.
func (r Result) Explain() string {
	var b strings.Builder
	if r.OK {
		fmt.Fprintf(&b, "history satisfies %s (%d txns, %d dependency edges)", r.Level, r.NumTxns, r.NumEdges)
		return b.String()
	}
	fmt.Fprintf(&b, "history VIOLATES %s:", r.Level)
	const maxShown = 5
	for i, a := range r.Anomalies {
		if i == maxShown {
			fmt.Fprintf(&b, "\n  ... and %d more anomalies", len(r.Anomalies)-maxShown)
			break
		}
		fmt.Fprintf(&b, "\n  %s", a)
	}
	if r.Divergence != nil {
		fmt.Fprintf(&b, "\n  %s", *r.Divergence)
	}
	if len(r.Cycle) > 0 {
		fmt.Fprintf(&b, "\n  cycle: %s", graph.FormatCycle(r.Cycle))
	}
	return b.String()
}

// Options tunes a checker run.
type Options struct {
	// SkipPreCheck disables the CheckInternal pre-pass. Only use on
	// histories already known to satisfy INT and unique values.
	SkipPreCheck bool
	// SparseRT makes CheckSSER encode the real-time order with a sorted
	// time chain (O(n log n)) instead of the paper's Θ(n²) enumeration.
	SparseRT bool
	// Parallelism bounds the worker pool used by the parallel phases
	// (dense real-time enumeration, sparse-RT base copy). <= 0 selects
	// GOMAXPROCS; 1 forces the serial path. The constructed graph is
	// identical at every setting — node-sharded construction preserves
	// per-node edge order.
	Parallelism int
	// Index optionally supplies a prebuilt columnar index of the
	// history under check, skipping the O(ops) intern-and-build pass
	// CheckSER/CheckSSER/CheckSI otherwise run. The MTCB indexed decode
	// (history.ReadMTCBIndexed) produces one as a byproduct, so fabric
	// workers check binary payloads without re-interning. Ignored —
	// and rebuilt — unless Index.History() is the checked history.
	Index *history.Index
}

// indexFor returns opts.Index when it indexes exactly h, else builds a
// fresh columnar index.
func indexFor(h *history.History, opts Options) *history.Index {
	if opts.Index != nil && opts.Index.History() == h {
		return opts.Index
	}
	return history.NewIndex(h)
}

// BuildDependency constructs the dependency graph of an MT history
// following the optimized Algorithm 1: WR edges are fixed by unique
// values, WW edges are inferred from WR when the reader also writes the
// object (the RMW pattern), and RW edges are derived from WR and WW. No
// WW transitive closure is computed (Theorems 1 and 2). When withRT is
// true the dense Θ(n²) real-time edges are added as well.
//
// The second return value lists every DIVERGENCE witness found while
// inferring WW edges; CheckSI uses it for its early exit, and the other
// checkers ignore it (Lemma 3 handles those cases through cycles).
func BuildDependency(h *history.History, withRT bool) (*graph.Graph, []Divergence) {
	g, divs, _ := buildDependencyCtx(context.Background(), history.NewIndex(h), withRT, 1)
	return g, divs
}

// buildDependencyCtx is BuildDependency over a prebuilt columnar index,
// polling ctx between batches of transactions (and real-time pairs) so
// construction of large graphs stops promptly under a deadline. The
// WR/WW/RW loops are the merge-join derivation of DeriveDeps (see
// derive.go); the graph it emits is edge-for-edge identical to the
// historical map-based builder. par bounds the worker pool of the dense
// real-time enumeration (<= 0 means GOMAXPROCS, 1 is serial); the
// constructed graph is identical at every setting.
func buildDependencyCtx(ctx context.Context, ix *history.Index, withRT bool, par int) (*graph.Graph, []Divergence, error) {
	h := ix.History()
	g := graph.New(len(h.Txns))

	if withRT {
		if err := addDenseRT(ctx, h, g, par); err != nil {
			return nil, nil, err
		}
	}
	h.SessionOrder(func(a, b int) {
		g.AddEdge(graph.Edge{From: a, To: b, Kind: graph.SO})
	})
	divs, err := deriveDeps(ctx, ix, g.AddEdge)
	if err != nil {
		return nil, nil, err
	}
	return g, divs, nil
}

// addDenseRT adds the paper's Θ(n²) real-time edges to g, sharding the
// enumeration by source transaction over a bounded worker pool
// (graph.ParallelDo). Every source's batch lands in its own adjacency
// slice through AddEdgesFrom, and the inner target loop scans in index
// order, so the per-node edge order — and hence every downstream cycle
// search — matches history.RealTimeOrder's serial enumeration exactly at
// any parallelism. Cancellation leaves g partially built; the caller
// discards it.
func addDenseRT(ctx context.Context, h *history.History, g *graph.Graph, par int) error {
	n := len(h.Txns)
	// Snapshot the per-transaction eligibility once so the n² inner loop
	// reads a compact contiguous array instead of chasing Txn structs.
	type rtMeta struct {
		start, finish int64
		committed     bool
	}
	meta := make([]rtMeta, n)
	for i := range h.Txns {
		t := &h.Txns[i]
		meta[i] = rtMeta{start: t.Start, finish: t.Finish, committed: t.Committed}
	}
	return graph.ParallelDo(ctx, par, n, func(i int) {
		a := meta[i]
		if !a.committed || a.finish == 0 {
			return
		}
		var batch []graph.Edge
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			b := meta[j]
			if !b.committed || b.start == 0 {
				continue
			}
			if a.finish < b.start {
				batch = append(batch, graph.Edge{From: i, To: j, Kind: graph.RT})
			}
		}
		g.AddEdgesFrom(i, batch)
	})
}

// preCheck runs the indexed CheckInternal unless disabled, returning a
// failed Result or nil. The index is shared with graph construction, so
// one columnar build serves both the pre-check and the edge derivation
// (the map-based pipeline built its writer index twice).
func preCheck(ix *history.Index, lvl Level, opts Options) *Result {
	if opts.SkipPreCheck {
		return nil
	}
	if as := history.CheckInternalIndexed(ix); len(as) > 0 {
		return &Result{Level: lvl, OK: false, Anomalies: as, NumTxns: ix.NumTxns()}
	}
	return nil
}

// CheckSER decides serializability (Definition 5) in Θ(n): the history
// satisfies SER iff the pre-check passes and SO ∪ WR ∪ WW ∪ RW is acyclic.
func CheckSER(h *history.History) Result {
	r, _ := CheckSERCtx(context.Background(), h, Options{})
	return r
}

// CheckSERCtx is CheckSER with options and under a context: graph
// construction polls ctx and the run returns the context's error instead
// of a verdict when the deadline fires.
func CheckSERCtx(ctx context.Context, h *history.History, opts Options) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	ix := indexFor(h, opts)
	if r := preCheck(ix, SER, opts); r != nil {
		return *r, nil
	}
	g, _, err := buildDependencyCtx(ctx, ix, false, opts.Parallelism)
	if err != nil {
		return Result{}, err
	}
	res := Result{Level: SER, NumTxns: len(h.Txns), NumEdges: g.NumEdges()}
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	if cycle := g.FindCycle(); cycle != nil {
		res.Cycle = cycle
		return res, nil
	}
	res.OK = true
	return res, nil
}

// CheckSSER decides strict serializability (Definition 4): like CheckSER
// but with the real-time order included, Θ(n²) with the dense encoding of
// the paper or O((n+m) log n) with Options.SparseRT.
func CheckSSER(h *history.History) Result { return CheckSSEROpt(h, Options{}) }

// CheckSSEROpt is CheckSSER with options.
func CheckSSEROpt(h *history.History, opts Options) Result {
	r, _ := CheckSSERCtx(context.Background(), h, opts)
	return r
}

// CheckSSERCtx is CheckSSER under a context. The dense Θ(n²) real-time
// enumeration polls ctx between batches of pairs, so the quadratic
// construction stops promptly under a deadline.
func CheckSSERCtx(ctx context.Context, h *history.History, opts Options) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	ix := indexFor(h, opts)
	if r := preCheck(ix, SSER, opts); r != nil {
		return *r, nil
	}
	var g *graph.Graph
	if opts.SparseRT {
		base, _, err := buildDependencyCtx(ctx, ix, false, opts.Parallelism)
		if err != nil {
			return Result{}, err
		}
		g = addSparseRT(h, base, opts.Parallelism)
	} else {
		var err error
		g, _, err = buildDependencyCtx(ctx, ix, true, opts.Parallelism)
		if err != nil {
			return Result{}, err
		}
	}
	res := Result{Level: SSER, NumTxns: len(h.Txns), NumEdges: g.NumEdges()}
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	if cycle := g.FindCycle(); cycle != nil {
		res.Cycle = compressAux(cycle)
		return res, nil
	}
	res.OK = true
	return res, nil
}

// CheckSI decides snapshot isolation (Definition 6) in Θ(n): reject on any
// DIVERGENCE witness (Lemma 1), otherwise check acyclicity of the induced
// graph (SO ∪ WR ∪ WW) ; RW?.
func CheckSI(h *history.History) Result {
	r, _ := CheckSICtx(context.Background(), h, Options{})
	return r
}

// CheckSICtx is CheckSI with options and under a context: graph
// construction and the composition step poll ctx, returning its error
// when the deadline fires.
func CheckSICtx(ctx context.Context, h *history.History, opts Options) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	ix := indexFor(h, opts)
	if r := preCheck(ix, SI, opts); r != nil {
		return *r, nil
	}
	g, divs, err := buildDependencyCtx(ctx, ix, false, opts.Parallelism)
	if err != nil {
		return Result{}, err
	}
	res := Result{Level: SI, NumTxns: len(h.Txns), NumEdges: g.NumEdges()}
	if len(divs) > 0 {
		res.Divergence = &divs[0]
		return res, nil
	}
	gi, expand := induceSI(g)
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	if cycle := gi.FindCycle(); cycle != nil {
		res.Cycle = expandComposed(cycle, expand)
		return res, nil
	}
	res.OK = true
	return res, nil
}

// InduceSI builds the SI-induced graph G' = (V, (SO ∪ WR ∪ WW) ; RW?)
// from a dependency graph and returns it with an expander that rewrites
// any cycle of G' back into the underlying dependency edges. It is the
// composition step of CheckSI, exported so internal/levels can evaluate
// the SI rung of a profile over an already-derived graph with verdicts
// and counterexamples bit-identical to CheckSICtx.
func InduceSI(g *graph.Graph) (*graph.Graph, func([]graph.Edge) []graph.Edge) {
	gi, expand := induceSI(g)
	return gi, func(cycle []graph.Edge) []graph.Edge { return expandComposed(cycle, expand) }
}

// AddSparseRT returns a copy of the base dependency graph extended with
// the O(n log n) sparse time-chain encoding of the real-time order — the
// Options.SparseRT path of CheckSSER, exported for internal/levels'
// SSER rung. Chain cycles must be rewritten with CompressAux before
// reporting.
func AddSparseRT(h *history.History, base *graph.Graph, par int) *graph.Graph {
	return addSparseRT(h, base, par)
}

// RTOrder returns each transaction's start and finish positions in the
// sorted real-time event sequence (the sparse chain's node order), or
// -1 for aborted or untimed transactions. Two timed transactions T, S
// satisfy finish(T) <rt start(S) — i.e. T really finished before S
// started — iff finish[T] < start[S]: the chain's tie-breaking (starts
// sort before finishes at equal timestamps) is baked into the ranks, so
// callers can decide real-time precedence without building the chain.
func RTOrder(h *history.History) (start, finish []int) {
	events := rtEvents(h)
	start = make([]int, len(h.Txns))
	finish = make([]int, len(h.Txns))
	for i := range start {
		start[i], finish[i] = -1, -1
	}
	for i, ev := range events {
		if ev.isStart {
			start[ev.txn] = i
		} else {
			finish[ev.txn] = i
		}
	}
	return start, finish
}

// CompressAux collapses every AUX time-chain run of a cycle into a
// single RT edge, so sparse-RT counterexamples read like dense ones.
func CompressAux(cycle []graph.Edge) []graph.Edge { return compressAux(cycle) }

// composedKey identifies a composed edge for counterexample expansion.
type composedKey struct{ from, to int }

// induceSI builds G' = (V, (SO ∪ WR ∪ WW) ; RW?) from the dependency
// graph. It returns the induced graph and a witness map that expands each
// composed edge back into its base and RW constituents for reporting.
func induceSI(g *graph.Graph) (*graph.Graph, map[composedKey][]graph.Edge) {
	gi := graph.New(g.Len())
	expand := make(map[composedKey][]graph.Edge)
	for u := 0; u < g.Len(); u++ {
		for _, e := range g.Out(u) {
			if e.Kind == graph.RW {
				continue
			}
			// Identity part of RW?: keep the base edge itself.
			gi.AddEdge(e)
			// Composition part: base ; RW.
			for _, rw := range g.Out(e.To) {
				if rw.Kind != graph.RW {
					continue
				}
				ck := composedKey{from: u, to: rw.To}
				if _, dup := expand[ck]; !dup {
					expand[ck] = []graph.Edge{e, rw}
				}
				gi.AddEdge(graph.Edge{From: u, To: rw.To, Kind: graph.AUX, Obj: "(;RW)"})
			}
		}
	}
	return gi, expand
}

// expandComposed rewrites a cycle of G' into the underlying dependency
// edges so that counterexamples read like the paper's figures.
func expandComposed(cycle []graph.Edge, expand map[composedKey][]graph.Edge) []graph.Edge {
	var out []graph.Edge
	for _, e := range cycle {
		if e.Kind == graph.AUX {
			if w, ok := expand[composedKey{e.From, e.To}]; ok {
				out = append(out, w...)
				continue
			}
		}
		out = append(out, e)
	}
	return out
}

// addSparseRT adds an O(n log n) encoding of the real-time order to the
// base dependency graph: a time chain of start/finish events with AUX
// edges T -> finish(T) and start(S) -> S, so that a path T ~> S through
// the chain exists iff finish(T) < start(S). The returned graph has
// 2n extra nodes; transaction nodes keep their IDs. The base-edge copy is
// sharded by source node over par workers (the chain edges stay serial —
// they are O(n) and ordered).
func addSparseRT(h *history.History, base *graph.Graph, par int) *graph.Graph {
	events := rtEvents(h)
	n := base.Len()
	g := graph.New(n + len(events))
	_ = graph.ParallelDo(context.Background(), par, n, func(u int) {
		g.AddEdgesFrom(u, base.Out(u))
	})
	appendRTChain(g, n, events)
	return g
}

// rtEvent is one endpoint of a committed transaction's real-time span.
type rtEvent struct {
	time    int64
	isStart bool
	txn     int
}

// rtEvents collects the start/finish events of every committed timed
// transaction, sorted by time. Starts sort before finishes at equal
// timestamps so that finish(T) == start(S) does NOT yield an RT path
// (RT is strict).
func rtEvents(h *history.History) []rtEvent {
	events := make([]rtEvent, 0, 2*len(h.Txns))
	for i := range h.Txns {
		t := &h.Txns[i]
		if !t.Committed || t.Start == 0 && t.Finish == 0 {
			continue
		}
		events = append(events, rtEvent{time: t.Start, isStart: true, txn: i})
		events = append(events, rtEvent{time: t.Finish, isStart: false, txn: i})
	}
	sort.Slice(events, func(i, j int) bool {
		if events[i].time != events[j].time {
			return events[i].time < events[j].time
		}
		return events[i].isStart && !events[j].isStart
	})
	return events
}

// appendRTChain wires the sorted events into g as a time chain rooted at
// node offset: each event links to the next, finishes hang their
// transaction onto the chain, starts hang the chain onto the
// transaction, so a path T ~> S through the chain exists iff
// finish(T) < start(S).
func appendRTChain(g *graph.Graph, offset int, events []rtEvent) {
	for i, ev := range events {
		node := offset + i
		if i+1 < len(events) {
			g.AddEdge(graph.Edge{From: node, To: node + 1, Kind: graph.AUX})
		}
		if ev.isStart {
			g.AddEdge(graph.Edge{From: node, To: ev.txn, Kind: graph.AUX, Obj: "start"})
		} else {
			g.AddEdge(graph.Edge{From: ev.txn, To: node, Kind: graph.AUX, Obj: "finish"})
		}
	}
}

// compressAux rewrites a cycle that may traverse the sparse time chain,
// collapsing every AUX run T -> finish ... start -> S into a single RT
// edge so counterexamples stay readable.
func compressAux(cycle []graph.Edge) []graph.Edge {
	var out []graph.Edge
	i := 0
	for i < len(cycle) {
		e := cycle[i]
		if e.Kind != graph.AUX {
			out = append(out, e)
			i++
			continue
		}
		// e enters the chain from transaction e.From; scan to the exit.
		from := e.From
		j := i
		for j < len(cycle) && cycle[j].Kind == graph.AUX {
			j++
		}
		// cycle[j-1] leaves the chain into a transaction node.
		to := cycle[j-1].To
		out = append(out, graph.Edge{From: from, To: to, Kind: graph.RT})
		i = j
	}
	return out
}

// Check dispatches on the level name.
func Check(h *history.History, lvl Level) Result {
	switch lvl {
	case SSER:
		return CheckSSER(h)
	case SER:
		return CheckSER(h)
	case SI:
		return CheckSI(h)
	default:
		panic(fmt.Sprintf("core: unknown level %q", lvl))
	}
}

// CheckCtx dispatches on the level name under a context. Unlike Check it
// reports an unknown level as an error rather than panicking, since the
// level may originate from an API request.
func CheckCtx(ctx context.Context, h *history.History, lvl Level, opts Options) (Result, error) {
	switch lvl {
	case SSER:
		return CheckSSERCtx(ctx, h, opts)
	case SER:
		return CheckSERCtx(ctx, h, opts)
	case SI:
		return CheckSICtx(ctx, h, opts)
	default:
		// RC/RA/CAUSAL are valid Level values but have no batch engine
		// here; internal/levels evaluates them (and the checker registry
		// routes the "rc"/"ra"/"causal"/"profile" entries there).
		return Result{}, fmt.Errorf("core: no batch engine for level %q", lvl)
	}
}

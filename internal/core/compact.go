package core

import (
	"cmp"
	"slices"

	"mtc/internal/graph"
	"mtc/internal/history"
)

// CompactStats reports the effect of one Compact call.
type CompactStats struct {
	// Collapsed is the number of settled transactions this call removed
	// from the dependency graph.
	Collapsed int
	// Live is the number of transactions still materialised afterwards.
	Live int
	// SummaryEdges is how many epoch-summary edges were inserted to
	// preserve reachability through the collapsed region.
	SummaryEdges int
}

// Compact collapses the settled prefix of the stream — every transaction
// whose external position is below frontier and whose state can no
// longer influence a future verdict — into a set of summary edges, and
// frees the graph nodes, dependency edges and per-transaction maps
// behind it. A windowed stream that calls Compact periodically therefore
// holds O(window + boundary) state instead of O(history).
//
// What survives a compaction, regardless of frontier:
//
//   - transactions at or beyond frontier, and everything pin reports
//     true for (pin receives external stream positions; nil pins
//     nothing) — the replay driver in CheckIncrementalWindowed pins
//     exactly the transactions the rest of the history still references,
//     which makes windowed verdicts provably identical to unbounded ones;
//   - the initial transaction and each session's latest transaction
//     (sources of future SO edges);
//   - parked readers still waiting for their writer;
//   - every slot — a writer, its readers and its RMW overwriters — whose
//     values remain readable: the writer is recent or pinned, it wrote a
//     key's current latest value, or the slot was referenced within the
//     window. Future reads resolve against exactly this retained state.
//
// Everything else is provably settled under the epoch contract: no
// future transaction reads a value written behind the frontier or
// write-conflicts with a collapsed slot. Live streams establish the
// contract exactly by declaring their sessions with ExpectSession:
// Compact then additionally pins every slot dethroned at or after the
// staleness horizon, so no in-flight read can lose its writer no
// matter how the scheduler interleaves sessions with the checker.
// Replay drivers instead pin future references explicitly (see
// CheckIncrementalWindowed). A contract-violating stale read parks
// forever and is classified ThinAirRead at Finalize rather than
// silently mis-verified.
//
// The collapsed subgraph is proved acyclic-closed before it is freed:
// the online order is itself a witness of acyclicity, and per-node
// reachability bitsets (graph.Bitset, computed in one reverse-topological
// sweep as in graph.Closure) summarise every path that crosses the
// collapsed region into a direct AUX "epoch" edge between retained
// nodes, so cycle detection over the remaining stream is unchanged. The
// rebuild panics if either property fails to hold.
//
// MaybeCompact is the standard compaction cadence every windowed driver
// (the batch replay, runner.RunStream, server sessions, benchmarks)
// shares: once the stream has outgrown the window and at least every
// transactions arrived since the last compaction (0 picks window/2), it
// runs Compact(NumTxns()-window, pin). It reports whether a compaction
// ran. window <= 0 disables compaction entirely.
func (inc *Incremental) MaybeCompact(window, every int, pin func(ext int) bool) bool {
	if window <= 0 {
		return false
	}
	if every <= 0 {
		every = window / 2
	}
	if every < 1 {
		every = 1
	}
	if inc.n <= window || inc.n-inc.lastCompactAt < every {
		return false
	}
	inc.Compact(inc.n-window, pin)
	inc.lastCompactAt = inc.n
	return true
}

// Compact is a no-op after a violation. It is not safe for concurrent
// use (same discipline as Add).
func (inc *Incremental) Compact(frontier int, pin func(ext int) bool) CompactStats {
	nNodes := inc.topo.Len()
	if inc.vio != nil || nNodes == 0 {
		return CompactStats{Live: nNodes}
	}
	if frontier > inc.n {
		frontier = inc.n
	}
	if frontier <= 0 {
		return CompactStats{Live: nNodes}
	}

	// keepBase: transactions whose written values must stay readable —
	// recent arrivals and driver-pinned nodes. Slot retention and value
	// lookup entries key off this tier.
	keepBase := make([]bool, nNodes)
	for i := 0; i < nNodes; i++ {
		if inc.ext[i] >= frontier || (pin != nil && pin(inc.ext[i])) {
			keepBase[i] = true
		}
	}
	// slotAlive: the slot (w, k) still accepts future readers or
	// overwriters, so its participants and value entries survive. With
	// session tracking on, a slot dethroned at or after the staleness
	// horizon — the minimum last-ingested position across active
	// sessions — is also alive: a transaction in flight on some session
	// started before the dethronement reached that session's stream and
	// may still legitimately read the slot's value.
	horizon, track := inc.stalenessHorizon()
	slotAlive := func(w int, k history.Key) bool {
		if keepBase[w] || inc.latestWriter[k] == w || inc.slotRef[incWK{w, k}] >= frontier {
			return true
		}
		if track {
			if d, ok := inc.dethroned[incWK{w, k}]; ok && d >= horizon {
				return true
			}
		}
		return false
	}

	// keep: full state retained (graph node plus every map entry).
	keep := make([]bool, nNodes)
	copy(keep, keepBase)
	if inc.initID >= 0 {
		keep[inc.initID] = true
	}
	//mtc:nondeterministic-ok marking keep bits; set union is commutative
	for _, id := range inc.lastInSession {
		keep[id] = true
	}
	//mtc:nondeterministic-ok marking keep bits; set union is commutative
	for _, waiters := range inc.pending {
		for _, r := range waiters {
			keep[r] = true
		}
	}
	markSlot := func(slot incWK) {
		if !slotAlive(slot.w, slot.k) {
			return
		}
		keep[slot.w] = true
		for _, r := range inc.readers[slot] {
			keep[r] = true
		}
		for _, o := range inc.overwriters[slot] {
			keep[o] = true
		}
	}
	//mtc:nondeterministic-ok marking keep bits; set union is commutative
	for slot := range inc.readers {
		markSlot(slot)
	}
	//mtc:nondeterministic-ok marking keep bits; set union is commutative
	for slot := range inc.overwriters {
		markSlot(slot)
	}
	// Writers with readable values but no readers yet still anchor
	// future WR edges.
	for k, m := range inc.writers { //mtc:nondeterministic-ok marking keep bits; set union is commutative
		for _, w := range m {
			if slotAlive(w, k) {
				keep[w] = true
			}
		}
	}

	// nodeKeep: nodes that must remain addressable in the graph beyond
	// the full-state tier. Under SI a future RW edge out of a kept
	// reader r composes with baseIn[r], and a future base edge into r
	// composes with rwOut[r]; the far endpoints of those compositions
	// must still exist as nodes (one hop only — old nodes never gain
	// new base in-edges, and new RW sources are always slot members,
	// which are kept in full).
	nodeKeep := keep
	if inc.lvl == SI {
		nodeKeep = make([]bool, nNodes)
		copy(nodeKeep, keep)
		for i := 0; i < nNodes; i++ {
			if !keep[i] {
				continue
			}
			for _, b := range inc.baseIn[i] {
				nodeKeep[b.From] = true
			}
			for _, rw := range inc.rwOut[i] {
				nodeKeep[rw.To] = true
			}
		}
	}

	collapsed := 0
	for i := 0; i < nNodes; i++ {
		if !nodeKeep[i] {
			collapsed++
		}
	}
	if collapsed == 0 {
		return CompactStats{Live: nNodes}
	}

	// Generational rebuild. Kept nodes are re-inserted in the current
	// topological order, so every re-added edge (and every summary edge)
	// respects insertion order and the Pearce–Kelly structure starts
	// compact again.
	order := make([]int, nNodes)
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return cmp.Compare(inc.topo.Ord(a), inc.topo.Ord(b)) })

	newTopo := graph.NewOnline()
	remap := make([]int, nNodes)
	for i := range remap {
		remap[i] = -1
	}
	for _, x := range order {
		if nodeKeep[x] {
			remap[x] = newTopo.AddNode()
		}
	}
	kcount := newTopo.Len()

	// Reverse-topological sweep over the collapsed region: reach[x] is
	// the set of kept nodes reachable from collapsed node x through
	// collapsed-only paths. The online order guarantees ord(From) <
	// ord(To) for every edge, so each successor's set is final when x is
	// visited — the same level-by-level argument graph.Closure uses, and
	// a proof the collapsed prefix is acyclic.
	reach := make(map[int]graph.Bitset, collapsed)
	for i := nNodes - 1; i >= 0; i-- {
		x := order[i]
		if nodeKeep[x] {
			continue
		}
		bits := graph.NewBitset(kcount)
		for _, e := range inc.topo.Out(x) {
			if nodeKeep[e.To] {
				bits.Set(remap[e.To])
			} else {
				bits.UnionWith(reach[e.To])
			}
		}
		reach[x] = bits
	}

	addEdge := func(e graph.Edge) {
		if cy := newTopo.AddEdge(e); cy != nil {
			panic("core: Compact rebuilt a cyclic graph; settled prefix was not acyclic-closed")
		}
	}
	summaryEdges := 0
	direct := graph.NewBitset(kcount)
	summary := graph.NewBitset(kcount)
	for _, x := range order {
		if !nodeKeep[x] {
			continue
		}
		direct.Clear()
		summary.Clear()
		viaCollapsed := false
		for _, e := range inc.topo.Out(x) {
			if nodeKeep[e.To] {
				addEdge(graph.Edge{From: remap[x], To: remap[e.To], Kind: e.Kind, Obj: e.Obj})
				direct.Set(remap[e.To])
			} else {
				summary.UnionWith(reach[e.To])
				viaCollapsed = true
			}
		}
		if !viaCollapsed {
			continue
		}
		nx := remap[x]
		summary.ForEach(func(b int) {
			if b == nx {
				panic("core: Compact found a cycle through the collapsed region")
			}
			if !direct.Test(b) {
				addEdge(graph.Edge{From: nx, To: b, Kind: graph.AUX, Obj: "epoch"})
				summaryEdges++
			}
		})
	}

	// Remap every retained map into fresh storage so the collapsed
	// entries are actually released.
	newExt := make([]int, kcount)
	for x, nx := range remap {
		if nx >= 0 {
			newExt[nx] = inc.ext[x]
		}
	}
	if inc.initID >= 0 {
		inc.initID = remap[inc.initID]
	}
	newLast := make(map[int]int, len(inc.lastInSession))
	//mtc:nondeterministic-ok key-for-key map rebuild; no order reaches the result
	for sess, id := range inc.lastInSession {
		newLast[sess] = remap[id]
	}
	newPending := make(map[history.Op][]int, len(inc.pending))
	//mtc:nondeterministic-ok key-for-key map rebuild; no order reaches the result
	for key, waiters := range inc.pending {
		nw := make([]int, len(waiters))
		for i, r := range waiters {
			nw[i] = remap[r]
		}
		newPending[key] = nw
	}
	newWriters := make(map[history.Key]map[history.Value]int, len(inc.writers))
	for k, m := range inc.writers { //mtc:nondeterministic-ok key-for-key map rebuild; no order reaches the result
		for v, w := range m {
			if !slotAlive(w, k) {
				continue
			}
			nm := newWriters[k]
			if nm == nil {
				nm = make(map[history.Value]int)
				newWriters[k] = nm
			}
			nm[v] = remap[w]
		}
	}
	newAborted := make(map[history.Key]map[history.Value]int, len(inc.abortedW))
	for k, m := range inc.abortedW { //mtc:nondeterministic-ok key-for-key map rebuild; no order reaches the result
		for v, w := range m {
			if !keepBase[w] {
				continue
			}
			nm := newAborted[k]
			if nm == nil {
				nm = make(map[history.Value]int)
				newAborted[k] = nm
			}
			nm[v] = remap[w]
		}
	}
	newFinal := make(map[int]writeSet, kcount)
	//mtc:nondeterministic-ok key-for-key map rebuild; no order reaches the result
	for id, fw := range inc.finalWrites {
		if keep[id] {
			newFinal[remap[id]] = fw
		}
	}
	remapList := func(src map[incWK][]int, dst map[incWK][]int) {
		//mtc:nondeterministic-ok key-for-key map rebuild; no order reaches the result
		for slot, list := range src {
			if !slotAlive(slot.w, slot.k) {
				continue
			}
			nl := make([]int, len(list))
			for i, id := range list {
				nl[i] = remap[id]
			}
			dst[incWK{remap[slot.w], slot.k}] = nl
		}
	}
	newReaders := make(map[incWK][]int, len(inc.readers))
	remapList(inc.readers, newReaders)
	newOver := make(map[incWK][]int, len(inc.overwriters))
	remapList(inc.overwriters, newOver)
	newSlotRef := make(map[incWK]int, len(inc.slotRef))
	//mtc:nondeterministic-ok key-for-key map rebuild; no order reaches the result
	for slot, ref := range inc.slotRef {
		if slotAlive(slot.w, slot.k) {
			newSlotRef[incWK{remap[slot.w], slot.k}] = ref
		}
	}
	newLatest := make(map[history.Key]int, len(inc.latestWriter))
	//mtc:nondeterministic-ok key-for-key map rebuild; no order reaches the result
	for k, w := range inc.latestWriter {
		newLatest[k] = remap[w]
	}
	newDethroned := make(map[incWK]int, len(inc.dethroned))
	//mtc:nondeterministic-ok key-for-key map rebuild; no order reaches the result
	for slot, d := range inc.dethroned {
		if slotAlive(slot.w, slot.k) {
			newDethroned[incWK{remap[slot.w], slot.k}] = d
		}
	}
	reEdge := func(e graph.Edge) graph.Edge {
		e.From, e.To = remap[e.From], remap[e.To]
		return e
	}
	newBaseIn := make(map[int][]graph.Edge, len(inc.baseIn))
	//mtc:nondeterministic-ok key-for-key map rebuild; no order reaches the result
	for id, edges := range inc.baseIn {
		if !keep[id] {
			continue
		}
		ne := make([]graph.Edge, len(edges))
		for i, e := range edges {
			ne[i] = reEdge(e)
		}
		newBaseIn[remap[id]] = ne
	}
	newRWOut := make(map[int][]graph.Edge, len(inc.rwOut))
	//mtc:nondeterministic-ok key-for-key map rebuild; no order reaches the result
	for id, edges := range inc.rwOut {
		if !keep[id] {
			continue
		}
		ne := make([]graph.Edge, len(edges))
		for i, e := range edges {
			ne[i] = reEdge(e)
		}
		newRWOut[remap[id]] = ne
	}
	newWitness := make(map[composedKey][]graph.Edge, len(inc.witness))
	//mtc:nondeterministic-ok key-for-key map rebuild; no order reaches the result
	for ck, edges := range inc.witness {
		// The witness threads through an intermediate node; keep the
		// expansion only while all three survive (a composed edge whose
		// witness was collapsed still reports, just unexpanded).
		mid := edges[0].To
		if !nodeKeep[ck.from] || !nodeKeep[ck.to] || !nodeKeep[mid] {
			continue
		}
		ne := make([]graph.Edge, len(edges))
		for i, e := range edges {
			ne[i] = reEdge(e)
		}
		newWitness[composedKey{from: remap[ck.from], to: remap[ck.to]}] = ne
	}

	inc.topo = newTopo
	inc.ext = newExt
	inc.lastInSession = newLast
	inc.pending = newPending
	inc.writers = newWriters
	inc.abortedW = newAborted
	inc.finalWrites = newFinal
	inc.readers = newReaders
	inc.overwriters = newOver
	inc.slotRef = newSlotRef
	inc.latestWriter = newLatest
	inc.dethroned = newDethroned
	inc.baseIn = newBaseIn
	inc.rwOut = newRWOut
	inc.witness = newWitness

	inc.compactTxns += collapsed
	inc.compactEpoch++
	return CompactStats{Collapsed: collapsed, Live: kcount, SummaryEdges: summaryEdges}
}

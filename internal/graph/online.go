package graph

import (
	"cmp"
	"slices"
)

// Online maintains a topological order of a growing DAG under node and
// edge insertions, detecting the first edge whose insertion closes a
// directed cycle. It implements the Pearce–Kelly dynamic topological
// ordering algorithm: when an inserted edge u -> v inverts the current
// order (ord(v) < ord(u)), a bounded bidirectional search discovers the
// affected region — the descendants of v and the ancestors of u whose
// order indices lie between ord(v) and ord(u) — and permutes only those
// indices. Edges that respect arrival order (the common case when
// transactions are fed in commit order, the paper's nearly-unique-graph
// regime) cost O(1), so the amortized cost per committed transaction
// stays near-constant.
//
// An inverting insertion costs the two searches, O(|region| + edges
// scanned), plus the permutation. The permutation needs the region's
// ancestors and descendants each in order-index order, and the indices
// they occupy. When the region fills a good share of the index span
// ord(u)-ord(v)+1, as it does when whole frames of transactions arrive
// out of commit order, one sweep of that span collects all three in
// order, O(span) with no comparisons. A region scattered thinly over a
// wide span is sorted instead, O(|region| log |region|). Either way
// the insertion allocates nothing once the per-node arrays and the
// scratch slices have grown to the graph's size and the largest region
// seen.
//
// Online is the substrate of core.Incremental; it is not safe for
// concurrent use.
type Online struct {
	ord   []int // node -> order index
	byOrd []int // order index -> node (inverse of ord)
	out   [][]Edge
	in    [][]Edge
	m     int

	// Per-node search state, valid only where mark carries the current
	// insertion's epoch: stamp for the forward search, -stamp for the
	// backward one. parent is the node the forward search reached a node
	// from; the edge itself is recovered only to report a cycle.
	mark   []int
	parent []int32
	stamp  int

	// Scratch reused across insertions.
	fwd, bwd, stack, slots []int
}

// sweepSpanFactor bounds the index span, as a multiple of the affected
// region's size, up to which the reorder sweeps the span instead of
// sorting the region. A sweep step is one mark test; a sort costs
// log |region| indirect comparisons per node, so sweeping a span a few
// times larger than the region still wins.
const sweepSpanFactor = 4

// NewOnline returns an empty online ordering with no nodes.
func NewOnline() *Online { return &Online{} }

// Len returns the number of nodes.
func (t *Online) Len() int { return len(t.ord) }

// NumEdges returns the number of inserted edges.
func (t *Online) NumEdges() int { return t.m }

// AddNode appends a new node at the end of the current order and returns
// its index.
func (t *Online) AddNode() int {
	id := len(t.ord)
	t.ord = append(t.ord, id)
	t.byOrd = append(t.byOrd, id)
	t.out = append(t.out, nil)
	t.in = append(t.in, nil)
	t.mark = append(t.mark, 0)
	t.parent = append(t.parent, 0)
	return id
}

// Out returns the outgoing edges of node v. The slice must not be
// modified.
func (t *Online) Out(v int) []Edge { return t.out[v] }

// Ord returns the current order index of node v.
func (t *Online) Ord(v int) int { return t.ord[v] }

// AddEdge inserts e, restoring the topological order. If the insertion
// closes a directed cycle it returns the cycle's edges (e first, so each
// edge's To is the next edge's From and the last edge re-enters e.From);
// the ordering is then stale and the structure should only be read, not
// grown. It returns nil when the graph remains acyclic.
//
//mtc:hotpath — every edge core.Incremental derives; an out-of-order stream reorders on most of them
func (t *Online) AddEdge(e Edge) []Edge {
	u, v := e.From, e.To
	t.out[u] = append(t.out[u], e)
	t.in[v] = append(t.in[v], e)
	t.m++
	if u == v {
		return []Edge{e}
	}
	if t.ord[u] < t.ord[v] {
		return nil
	}
	lb, ub := t.ord[v], t.ord[u]

	// Forward search from v over nodes with ord <= ub. Any path from v to
	// u has strictly increasing order indices (the pre-insertion invariant),
	// so pruning at ub cannot miss a cycle.
	t.stamp++
	fwdStamp := t.stamp
	fwd := append(t.fwd[:0], v)
	t.mark[v] = fwdStamp
	stack := append(t.stack[:0], v)
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, oe := range t.out[x] {
			w := oe.To
			if w == u {
				return t.cycle(e, x, oe)
			}
			if t.ord[w] > ub || t.mark[w] == fwdStamp {
				continue
			}
			t.mark[w] = fwdStamp
			t.parent[w] = int32(x)
			fwd = append(fwd, w)
			stack = append(stack, w)
		}
	}

	// Backward search from u over nodes with ord >= lb. No overlap with
	// fwd is possible: a shared node would witness a v ~> u path, found
	// above.
	bwdStamp := -fwdStamp
	bwd := append(t.bwd[:0], u)
	t.mark[u] = bwdStamp
	stack = append(stack, u)
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, ie := range t.in[x] {
			w := ie.From
			if t.ord[w] < lb || t.mark[w] == bwdStamp {
				continue
			}
			t.mark[w] = bwdStamp
			bwd = append(bwd, w)
			stack = append(stack, w)
		}
	}

	// Reorder: the ancestors (bwd) take the smallest affected indices, the
	// descendants (fwd) the largest, each group keeping its relative order.
	// Every region node's index lies in [lb, ub].
	slots := t.slots[:0]
	if ub-lb+1 <= sweepSpanFactor*(len(fwd)+len(bwd)) {
		fwd, bwd = fwd[:0], bwd[:0]
		for i := lb; i <= ub; i++ {
			switch x := t.byOrd[i]; t.mark[x] {
			case fwdStamp:
				fwd = append(fwd, x)
			case bwdStamp:
				bwd = append(bwd, x)
			default:
				continue
			}
			slots = append(slots, i)
		}
	} else {
		byOrd := func(a, b int) int { return cmp.Compare(t.ord[a], t.ord[b]) }
		slices.SortFunc(fwd, byOrd)
		slices.SortFunc(bwd, byOrd)
		// Merge the two sorted index lists into the sorted slot list.
		i, j := 0, 0
		for i < len(bwd) || j < len(fwd) {
			if j == len(fwd) || i < len(bwd) && t.ord[bwd[i]] < t.ord[fwd[j]] {
				slots = append(slots, t.ord[bwd[i]])
				i++
			} else {
				slots = append(slots, t.ord[fwd[j]])
				j++
			}
		}
	}
	for i, x := range bwd {
		t.ord[x] = slots[i]
		t.byOrd[slots[i]] = x
	}
	for i, x := range fwd {
		s := slots[len(bwd)+i]
		t.ord[x] = s
		t.byOrd[s] = x
	}
	t.fwd, t.bwd, t.stack, t.slots = fwd, bwd, stack, slots
	return nil
}

// cycle assembles the witness of a cycle closed by e = u -> v once the
// forward search, standing at x, found the edge last back into u: e,
// then the search-tree path v ~> x, then last. Each tree edge is the
// first edge of its source's adjacency list that enters the child — the
// edge the search first reached the child by, since the child was marked
// then and never re-parented.
func (t *Online) cycle(e Edge, x int, last Edge) []Edge {
	n := 2
	for y := x; y != e.To; y = int(t.parent[y]) {
		n++
	}
	cy := make([]Edge, n)
	cy[0], cy[n-1] = e, last
	for y, i := x, n-2; y != e.To; y, i = int(t.parent[y]), i-1 {
		for _, pe := range t.out[t.parent[y]] {
			if pe.To == y {
				cy[i] = pe
				break
			}
		}
	}
	return cy
}

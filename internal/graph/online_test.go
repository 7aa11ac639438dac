package graph

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// sortOnline is the reference the sweep-and-sort reorder of Online must
// match step for step: the plain Pearce–Kelly insertion with a map of
// parent edges and comparison sorts of the affected region. It records
// the region size and index span of its last reorder so tests can tell
// which of Online's two reorder branches the same insertion takes.
type sortOnline struct {
	ord, byOrd   []int
	out, in      [][]Edge
	mark         []int
	stamp        int
	span, region int
}

func (t *sortOnline) addNode() {
	id := len(t.ord)
	t.ord = append(t.ord, id)
	t.byOrd = append(t.byOrd, id)
	t.out = append(t.out, nil)
	t.in = append(t.in, nil)
	t.mark = append(t.mark, 0)
}

func (t *sortOnline) addEdge(e Edge) []Edge {
	t.span, t.region = 0, 0
	u, v := e.From, e.To
	t.out[u] = append(t.out[u], e)
	t.in[v] = append(t.in[v], e)
	if u == v {
		return []Edge{e}
	}
	if t.ord[u] < t.ord[v] {
		return nil
	}
	lb, ub := t.ord[v], t.ord[u]
	t.stamp++
	fwd := []int{v}
	t.mark[v] = t.stamp
	parent := map[int]Edge{}
	stack := []int{v}
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, oe := range t.out[x] {
			w := oe.To
			if w == u {
				cycle := []Edge{e}
				var path []Edge
				for y := x; y != v; y = parent[y].From {
					path = append(path, parent[y])
				}
				for i := len(path) - 1; i >= 0; i-- {
					cycle = append(cycle, path[i])
				}
				return append(cycle, oe)
			}
			if t.ord[w] > ub || t.mark[w] == t.stamp {
				continue
			}
			t.mark[w] = t.stamp
			parent[w] = oe
			fwd = append(fwd, w)
			stack = append(stack, w)
		}
	}
	bwdStamp := -t.stamp
	bwd := []int{u}
	t.mark[u] = bwdStamp
	stack = append(stack[:0], u)
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
	t.span, t.region = ub-lb+1, len(fwd)+len(bwd)
	byOrd := func(s []int) {
		sort.Slice(s, func(i, j int) bool { return t.ord[s[i]] < t.ord[s[j]] })
	}
	byOrd(fwd)
	byOrd(bwd)
	slots := make([]int, 0, len(fwd)+len(bwd))
	for _, x := range bwd {
		slots = append(slots, t.ord[x])
	}
	for _, x := range fwd {
		slots = append(slots, t.ord[x])
	}
	sort.Ints(slots)
	nodes := append(bwd, fwd...)
	for i, x := range nodes {
		t.ord[x] = slots[i]
		t.byOrd[slots[i]] = x
	}
	return nil
}

// TestOnlineMatchesSortReference drives Online and the sort-based
// reference through random insertion sequences and checks, after every
// insertion:
//
//   - ord, byOrd and any cycle witness equal the reference's exactly;
//   - an acyclic insertion leaves ord a topological order of every
//     inserted edge, with byOrd its inverse;
//   - a reported cycle starts with the inserted edge and is a closed
//     path of inserted edges;
//   - a cycle is reported exactly when Graph.FindCycle finds one in the
//     same edge set.
//
// Edges follow a hidden random ranking of the nodes, so most insertions
// keep the graph acyclic while arrival order still inverts the online
// order; a small share run against the ranking and eventually close a
// cycle, which ends the sequence. Edges between nodes of nearby rank
// chain a small graph together, so regions fill their index span (the
// sweep branch); edges between any two nodes of a large graph give small
// regions over wide spans (the sort branch). Both must run many times.
func TestOnlineMatchesSortReference(t *testing.T) {
	sweeps, sorts, cycles := 0, 0, 0
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dense := seed%2 == 0
		// Sparse: new nodes take any rank, edges join any two nodes.
		// Dense: each new node ranks near the front but joins the order
		// at the back, and edges chain it to its rank neighbours, as a
		// transaction that committed before most of those already fed.
		nodes, front, newEvery, against := 300, math.MaxInt, 10, 50
		if dense {
			nodes, front, newEvery, against = 12, 4, 4, 400
		}
		o, ref := NewOnline(), &sortOnline{}
		var byRank []int // nodes in hidden rank order
		addNode := func() {
			byRank = slices.Insert(byRank, rng.Intn(min(len(byRank), front)+1), o.AddNode())
			ref.addNode()
		}
		for i := 0; i < nodes; i++ {
			addNode()
		}
		var all []Edge
		for step := 0; step < 300; step++ {
			if rng.Intn(newEvery) == 0 {
				addNode()
				continue
			}
			n := o.Len()
			i, j := rng.Intn(n), rng.Intn(n)
			if dense {
				i = rng.Intn(min(n, 2*front))
				j = min(n-1, i+1+rng.Intn(3))
			}
			u, v := byRank[min(i, j)], byRank[max(i, j)]
			if rng.Intn(against) == 0 {
				u, v = v, u
			}
			e := Edge{From: u, To: v, Kind: EdgeKind(rng.Intn(int(AUX) + 1))}
			all = append(all, e)
			got, want := o.AddEdge(e), ref.addEdge(e)
			if ref.region > 0 {
				if ref.span <= sweepSpanFactor*ref.region {
					sweeps++
				} else {
					sorts++
				}
			}
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d step %d: %v: cycle %v, reference %v", seed, step, e, got, want)
			}
			if !slices.Equal(o.ord, ref.ord) || !slices.Equal(o.byOrd, ref.byOrd) {
				t.Fatalf("seed %d step %d: %v: ord %v, reference %v", seed, step, e, o.ord, ref.ord)
			}
			g := New(n)
			for _, ae := range all {
				g.AddEdge(ae)
			}
			if (got != nil) != (g.FindCycle() != nil) {
				t.Fatalf("seed %d step %d: %v: Online cycle %v disagrees with FindCycle", seed, step, e, got)
			}
			if got != nil {
				checkCycle(t, o, e, got)
				cycles++
				break
			}
			checkOrder(t, o)
		}
	}
	t.Logf("%d sweep reorders, %d sort reorders, %d cycles", sweeps, sorts, cycles)
	if sweeps < 1000 || sorts < 1000 || cycles < 50 {
		t.Fatalf("weak coverage: %d sweep reorders, %d sort reorders, %d cycles", sweeps, sorts, cycles)
	}
}

// checkOrder asserts that ord is a permutation respecting every edge and
// byOrd is its inverse.
func checkOrder(t *testing.T, o *Online) {
	t.Helper()
	for x := range o.ord {
		if o.byOrd[o.ord[x]] != x {
			t.Fatalf("byOrd[ord[%d]] = %d", x, o.byOrd[o.ord[x]])
		}
		for _, e := range o.out[x] {
			if o.ord[e.From] >= o.ord[e.To] {
				t.Fatalf("edge %v violates the order: ord %d >= %d", e, o.ord[e.From], o.ord[e.To])
			}
		}
	}
}

// checkCycle asserts that cy starts with e and is a closed path of
// inserted edges.
func checkCycle(t *testing.T, o *Online, e Edge, cy []Edge) {
	t.Helper()
	if cy[0] != e {
		t.Fatalf("cycle %v does not start with %v", cy, e)
	}
	for i, ce := range cy {
		if next := cy[(i+1)%len(cy)]; ce.To != next.From {
			t.Fatalf("cycle %v breaks at %d", cy, i)
		}
		if !slices.Contains(o.out[ce.From], ce) {
			t.Fatalf("cycle edge %v was never inserted", ce)
		}
	}
}

// TestOnlineReorderAllocs pins the steady state of both reorder branches
// at zero allocations once the scratch has grown: each measured
// insertion joins two 2-node chains whose order it inverts. Adjacent
// chains give a region filling its span (sweep); chains far apart give a
// 4-node region over a wide span (sort). Edge lists get their capacity
// up front so the adjacency appends, which amortize over a stream, do
// not count.
func TestOnlineReorderAllocs(t *testing.T) {
	const gadgets, far = 64, 4096
	for _, tc := range []struct {
		name string
		pair func(k int) (a, c int) // chain a->a+1 precedes chain c->c+1
	}{
		{"sweep", func(k int) (int, int) { return 4 * k, 4*k + 2 }},
		{"sort", func(k int) (int, int) { return 2 * k, far + 2*k }},
	} {
		o := NewOnline()
		for o.Len() < far+2*gadgets {
			o.AddNode()
		}
		var inserts []Edge
		for k := 0; k < gadgets; k++ {
			a, c := tc.pair(k)
			o.AddEdge(Edge{From: a, To: a + 1})
			o.AddEdge(Edge{From: c, To: c + 1})
			inserts = append(inserts, Edge{From: c + 1, To: a})
		}
		for x := 0; x < o.Len(); x++ {
			o.out[x] = slices.Grow(o.out[x], 1)
			o.in[x] = slices.Grow(o.in[x], 1)
		}
		a, c := tc.pair(0)
		span := o.Ord(c+1) - o.Ord(a) + 1
		if sweep := span <= sweepSpanFactor*4; sweep != (tc.name == "sweep") {
			t.Fatalf("%s: gadget span %d takes the other branch", tc.name, span)
		}
		next := 0
		allocs := testing.AllocsPerRun(gadgets-1, func() {
			if cy := o.AddEdge(inserts[next]); cy != nil {
				t.Errorf("%s: %v closed cycle %v", tc.name, inserts[next], cy)
			}
			next++
		})
		if allocs != 0 {
			t.Errorf("%s: %.1f allocations per reorder, want 0", tc.name, allocs)
		}
		checkOrder(t, o)
	}
}

package mtc_test

import (
	"context"
	"testing"

	"mtc/pkg/mtc"
)

// TestProfilePublicSurface drives the lattice profiler through the
// public API only: build a fractured-read history, profile it, and
// check the strongest-level verdict plus rung/guarantee shapes.
func TestProfilePublicSurface(t *testing.T) {
	// T1 updates x and y atomically (reads make the version order
	// derivable); T2 reads T1's x but init's y — a fractured read:
	// violates RA (and everything above), not RC.
	b := mtc.NewHistoryBuilder("x", "y")
	b.Txn(0, mtc.Read("x", 0), mtc.Write("x", 1), mtc.Read("y", 0), mtc.Write("y", 1))
	b.Txn(1, mtc.Read("x", 1), mtc.Read("y", 0))
	rep, err := mtc.Profile(context.Background(), b.Build(), mtc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.StrongestLevel != mtc.RC {
		t.Fatalf("strongest = %s, want RC", rep.StrongestLevel)
	}
	if len(rep.Rungs) != len(mtc.Levels()) {
		t.Fatalf("%d rungs, want %d", len(rep.Rungs), len(mtc.Levels()))
	}
	if len(rep.Guarantees) != 4 {
		t.Fatalf("%d guarantees, want 4", len(rep.Guarantees))
	}
	// The top-level verdict reflects the default requested level (SI),
	// so Profile drops in for a single-level Check.
	if rep.Level != mtc.SI || rep.OK {
		t.Fatalf("top-level verdict = %s ok=%v, want SI violated", rep.Level, rep.OK)
	}
}

// TestLevelsOrder pins the public lattice enumeration, weakest first.
func TestLevelsOrder(t *testing.T) {
	want := []mtc.Level{mtc.RC, mtc.RA, mtc.CAUSAL, mtc.SI, mtc.SER, mtc.SSER}
	got := mtc.Levels()
	if len(got) != len(want) {
		t.Fatalf("Levels() = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Levels() = %v, want %v", got, want)
		}
	}
}

// TestCheckShardOption: Options.Shard is the one switch for sharded
// checking through the public API — the same verdict on a 4-tenant
// history, with the decomposition reported only when asked for.
func TestCheckShardOption(t *testing.T) {
	b := mtc.NewHistoryBuilder("a", "b", "c", "d")
	for i := 0; i < 3; i++ {
		for s, k := range []mtc.Key{"a", "b", "c", "d"} {
			b.Txn(s, mtc.Read(k, mtc.Value(i)), mtc.Write(k, mtc.Value(i+1)))
		}
	}
	h := b.Build()
	ctx := context.Background()
	plain, err := mtc.Check(ctx, "mtc", h, mtc.Options{Level: mtc.SER})
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := mtc.Check(ctx, "mtc", h, mtc.Options{Level: mtc.SER, Shard: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !plain.OK || sharded.OK != plain.OK || sharded.Txns != plain.Txns || sharded.Edges != plain.Edges ||
		sharded.Checker != plain.Checker {
		t.Fatalf("verdicts diverge:\nShard 0: %+v\nShard 2: %+v", plain, sharded)
	}
	if plain.ShardComponents != 0 || sharded.ShardComponents != 4 {
		t.Fatalf("ShardComponents = %d (Shard 0) and %d (Shard 2), want 0 and 4",
			plain.ShardComponents, sharded.ShardComponents)
	}
}

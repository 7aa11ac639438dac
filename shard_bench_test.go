// shard_bench_test.go benchmarks component-sharded verification on a
// multi-tenant history — the headline scaling of the shard layer. The
// workload is a 4-tenant GT history checked through the Cobra SER
// baseline (whose per-component prune/solve work dominates the O(n)
// partition pass), with the engine-internal parallelism pinned to 1 so
// the axis measures pure component fan-out: BenchmarkShard1 is the
// sharded-but-serial floor, BenchmarkShard4 the acceptance bar (>= 2x
// at 4 workers on 4 tenants on a multi-core host), and
// BenchmarkShardGOMAXPROCS whatever the host offers. On a single-core
// machine all three coincide.
package main

import (
	"context"
	"sync"
	"testing"

	"mtc/internal/checker"
	"mtc/internal/core"
	"mtc/internal/history"
	"mtc/internal/shard"
)

// shardBenchFile is the history of workload.GenerateGT{Sessions: 8,
// Txns: 150, Objects: 8, OpsPerTxn: 4, Dist: Uniform, Seed: 42,
// Tenants: 4} executed once by runner.Run (serializable store, 4
// retries). It is committed rather than regenerated because the
// executor's interleaving depends on goroutine scheduling, which made
// the benchmark's allocation counts vary run to run.
const shardBenchFile = "testdata/shard-4tenants.mtcb"

var (
	shardBenchOnce sync.Once
	shardBenchHist *history.History
	shardBenchErr  error
)

// shardBenchHistory loads the committed 4-tenant history once and
// reuses it across the Shard* benchmarks.
func shardBenchHistory(b *testing.B) *history.History {
	shardBenchOnce.Do(func() { shardBenchHist, shardBenchErr = history.LoadFile(shardBenchFile) })
	if shardBenchErr != nil {
		b.Fatal(shardBenchErr)
	}
	return shardBenchHist
}

// benchShard checks the 4-tenant history through sharded cobra with the
// given component worker bound (0 = GOMAXPROCS).
func benchShard(b *testing.B, workers int) {
	h := shardBenchHistory(b)
	cobra, err := checker.Lookup("cobra")
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := shard.Check(ctx, cobra, h,
			checker.Options{Level: core.SER, Parallelism: 1, Shard: workers})
		if err != nil {
			b.Fatal(err)
		}
		if !rep.OK || rep.ShardComponents != 4 {
			b.Fatalf("unexpected report: ok=%v components=%d", rep.OK, rep.ShardComponents)
		}
	}
}

func BenchmarkShard1(b *testing.B) { benchShard(b, 1) }

func BenchmarkShard4(b *testing.B) { benchShard(b, 4) }

func BenchmarkShardGOMAXPROCS(b *testing.B) { benchShard(b, 0) }

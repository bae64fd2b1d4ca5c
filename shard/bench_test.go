package shard

import (
	"context"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/testkit"
	"repro/oracle"
)

// BenchmarkShardedVsMonolithic compares one monolithic engine against the
// sharded oracle at K ∈ {2, 4} on the testkit grid/gnm pair: build
// wall-clock, resident memory, and cold + warm single-source query time.
// The largest-shard column is the number sharding exists for: per-shard
// resident size (the eviction granularity a registry budget sees during
// builds) shrinks with K even when the summed total does not.
func BenchmarkShardedVsMonolithic(b *testing.B) {
	// Grid is the favorable case (boundary ~ K·√n); gnm is the adversary
	// (an expander's cut is a constant fraction of m, so the overlay is
	// dense and the boundary MultiSource dominates the build). The gnm
	// instance is kept small for exactly that reason — the measurement is
	// the point: sharding pays on low-conductance graphs.
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"grid", testkit.Grid(4096, 17)},
		{"gnm", testkit.Gnm(512, 18)},
	}
	backends := []struct {
		name string
		k    int
	}{
		{"monolithic", 0},
		{"sharded-k2", 2},
		{"sharded-k4", 4},
	}
	for _, gc := range graphs {
		for _, bk := range backends {
			b.Run(gc.name+"/"+bk.name, func(b *testing.B) {
				var buildNS, coldNS, warmNS int64
				var memory, largest int64
				var boundary int
				for i := 0; i < b.N; i++ {
					start := time.Now()
					var backend oracle.Backend
					if bk.k == 0 {
						eng, err := oracle.New(gc.g, oracle.WithEpsilon(0.25))
						if err != nil {
							b.Fatal(err)
						}
						memory, largest = eng.MemoryBytes(), eng.MemoryBytes()
						backend = eng
					} else {
						o, err := Build(context.Background(), gc.g, Config{K: bk.k, EpsilonLocal: 0.25})
						if err != nil {
							b.Fatal(err)
						}
						memory, largest = o.MemoryBytes(), 0
						for _, sh := range o.shards {
							largest = max(largest, sh.eng.MemoryBytes())
						}
						boundary = len(o.boundary)
						backend = o
					}
					buildNS += time.Since(start).Nanoseconds()

					start = time.Now()
					if _, err := backend.Dist(1); err != nil {
						b.Fatal(err)
					}
					coldNS += time.Since(start).Nanoseconds()
					start = time.Now()
					if _, err := backend.Dist(1); err != nil {
						b.Fatal(err)
					}
					warmNS += time.Since(start).Nanoseconds()
				}
				perOpMS := func(ns int64) float64 { return float64(ns) / float64(b.N) / 1e6 }
				b.ReportMetric(perOpMS(buildNS), "build-ms")
				b.ReportMetric(perOpMS(coldNS), "cold-dist-ms")
				b.ReportMetric(perOpMS(warmNS), "warm-dist-ms")
				b.ReportMetric(float64(memory), "memory-bytes")
				b.ReportMetric(float64(largest), "largest-shard-bytes")
				b.ReportMetric(float64(boundary), "boundary-vertices")
			})
		}
	}
}

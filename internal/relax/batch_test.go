package relax

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/adj"
	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/testkit"
)

// spreadSources picks k deterministic, roughly equally spaced sources in
// [0, n) — duplicates appear when k > n, which the kernel must tolerate.
func spreadSources(n, k int) []int32 {
	out := make([]int32, k)
	for i := range out {
		out[i] = int32((i * 131) % n)
	}
	return out
}

// TestRunBatchBitIdenticalToSequential is the batched kernel's central
// property: per lane, RunBatch reproduces the sequential Run bit for bit —
// labels, parents, arcs, per-lane round counts and convergence flags —
// across graph families, worker counts {1,2,8}, batch sizes {1,7,64},
// round budgets, and kernel forcing options.
func TestRunBatchBitIdenticalToSequential(t *testing.T) {
	old := par.Workers()
	defer par.SetWorkers(old)
	opts := []struct {
		name string
		o    Options
	}{
		{"adaptive", Options{}},
		{"dense", Options{ForceDense: true}},
		{"sparse", Options{DenseFraction: 1.5}},
	}
	for seed := int64(0); seed < 2; seed++ {
		for _, gc := range propertyGraphs(seed) {
			a := adj.Build(gc.G, nil)
			n := gc.G.N
			for _, k := range []int{1, 7, 64} {
				sources := spreadSources(n, k)
				for _, budget := range []int{3, n} {
					for _, oc := range opts {
						want := make([]*Result, k)
						for i, s := range sources {
							want[i] = Run(a, []int32{s}, budget, oc.o)
						}
						for _, workers := range []int{1, 2, 8} {
							par.SetWorkers(workers)
							got := RunBatch(a, sources, budget, oc.o)
							if len(got) != k {
								t.Fatalf("%s/%s: %d lanes, want %d", gc.Name, oc.name, len(got), k)
							}
							for i := range got {
								label := fmt.Sprintf("%s/%s/k=%d/budget=%d/w=%d/lane=%d",
									gc.Name, oc.name, k, budget, workers, i)
								sameResult(t, label, got[i], want[i])
							}
						}
					}
				}
			}
		}
	}
}

// TestRunBatchChunksLargeSourceLists pins the >MaxBatch path: 150 sources
// split into three chunks, every lane still sequential-identical.
func TestRunBatchChunksLargeSourceLists(t *testing.T) {
	g := testkit.Grid(288, 3)
	a := adj.Build(g, nil)
	sources := spreadSources(g.N, 150)
	got := RunBatch(a, sources, g.N, Options{})
	if len(got) != len(sources) {
		t.Fatalf("%d lanes, want %d", len(got), len(sources))
	}
	for i, s := range sources {
		sameResult(t, fmt.Sprintf("lane %d", i), got[i], Run(a, []int32{s}, g.N, Options{}))
	}
}

// TestRunBatchCounters pins the shared-traversal accounting contract: a
// k-lane batch is one exploration with BatchedSeeds = k, and its scanned
// arcs are charged once, not per lane.
func TestRunBatchCounters(t *testing.T) {
	g := testkit.Grid(288, 5)
	a := adj.Build(g, nil)
	var ctr Counters
	RunBatch(a, spreadSources(g.N, 64), g.N, Options{Counters: &ctr})
	snap := ctr.Snapshot()
	if snap.Explorations != 1 {
		t.Fatalf("explorations = %d, want 1 (one batch)", snap.Explorations)
	}
	if snap.BatchedSeeds != 64 {
		t.Fatalf("batched seeds = %d, want 64", snap.BatchedSeeds)
	}
	if snap.ScannedArcs <= 0 {
		t.Fatalf("scanned arcs = %d, want > 0", snap.ScannedArcs)
	}
	// 150 sources → chunks of 64+64+22.
	ctr = Counters{}
	RunBatch(a, spreadSources(g.N, 150), g.N, Options{Counters: &ctr})
	snap = ctr.Snapshot()
	if snap.Explorations != 3 || snap.BatchedSeeds != 150 {
		t.Fatalf("explorations/seeds = %d/%d, want 3/150", snap.Explorations, snap.BatchedSeeds)
	}
}

// TestBatchArcReductionOnGrid pins the batched kernel's headline claim
// at the accounting level: a 64-seed batch scans far fewer arcs than 64
// sequential explorations. Scanned arcs are deterministic counters, the
// same at every worker count, so the floors hold exactly. Three
// workloads: an 8×8 source block on a grid (the coalesced-serve /
// ETA-matrix shape, where the waves expand nearly in lock-step and each
// shared traversal serves many lanes), spread sources on the same grid
// (waves pass each vertex at 64 different rounds — the honest lower
// bound), and spread sources on a gnm expander. Each floor is 0.85× the
// reduction measured when the batched kernel landed (6.82×, 1.69×,
// 35.7×).
func TestBatchArcReductionOnGrid(t *testing.T) {
	grid := testkit.Grid(128*128, 7)
	gnm := testkit.Dense(8192, 42)
	var block []int32
	for r := 64; r < 72; r++ {
		for c := 64; c < 72; c++ {
			block = append(block, int32(r*128+c))
		}
	}
	for _, tc := range []struct {
		name    string
		g       *graph.Graph
		sources []int32
		floor   float64
	}{
		{"grid-block", grid, block, 5.79},
		{"grid-spread", grid, spreadSources(grid.N, MaxBatch), 1.43},
		{"gnm-spread", gnm, spreadSources(gnm.N, MaxBatch), 30.3},
	} {
		a := adj.Build(tc.g, nil)
		var seq Counters
		for _, s := range tc.sources {
			Run(a, []int32{s}, tc.g.N, Options{Counters: &seq})
		}
		var bat Counters
		RunBatch(a, tc.sources, tc.g.N, Options{Counters: &bat})

		seqArcs := seq.Snapshot().ScannedArcs
		batArcs := bat.Snapshot().ScannedArcs
		if batArcs <= 0 || seqArcs <= 0 {
			t.Fatalf("%s: degenerate accounting: seq=%d bat=%d", tc.name, seqArcs, batArcs)
		}
		if ratio := float64(seqArcs) / float64(batArcs); ratio < tc.floor {
			t.Errorf("%s: arc reduction %.2fx (seq %d, batched %d), want ≥ %.2fx",
				tc.name, ratio, seqArcs, batArcs, tc.floor)
		}
	}
}

// TestStartOffsetsLengthMismatch is the satellite regression: mismatched
// sources/offsets used to panic with an index error; now it is a typed
// error a serving process can map to a 4xx.
func TestStartOffsetsLengthMismatch(t *testing.T) {
	g := testkit.Grid(64, 1)
	a := adj.Build(g, nil)
	if _, err := StartOffsets(a, []int32{1, 2, 3}, []float64{0.5}, Options{}); !errors.Is(err, ErrLengthMismatch) {
		t.Fatalf("StartOffsets error = %v, want ErrLengthMismatch", err)
	}
	if _, err := RunOffsets(a, []int32{1}, nil, 8, Options{}); !errors.Is(err, ErrLengthMismatch) {
		t.Fatalf("RunOffsets error = %v, want ErrLengthMismatch", err)
	}
	if _, err := StartBatch(a, nil, Options{}); err == nil {
		t.Fatal("StartBatch accepted an empty batch")
	}
	if _, err := StartBatch(a, make([]int32, MaxBatch+1), Options{}); err == nil {
		t.Fatal("StartBatch accepted an oversized batch")
	}
}

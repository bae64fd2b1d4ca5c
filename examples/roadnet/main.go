// Roadnet: the motivating workload for hopsets — a high-diameter road-like
// grid where plain parallel Bellman–Ford needs ~diameter rounds, while the
// hopset collapses the hop diameter to polylog (§1.1, experiment E11).
// Simulates a multi-depot dispatch: nearest-depot distances for every
// intersection.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/adj"
	"repro/internal/exact"
	"repro/internal/graph"
	"repro/internal/pram"
	"repro/internal/relax"
	"repro/oracle"
)

func main() {
	// A 96×96 grid with road-segment weights: diameter ≈ 190 hops.
	const rows, cols = 96, 96
	g := graph.Grid(rows, cols, graph.UniformWeights(1, 3), 7)
	fmt.Printf("road network: %d intersections, %d segments\n", g.N, g.M())

	eng, err := oracle.New(g, oracle.WithEpsilon(0.25))
	if err != nil {
		log.Fatal(err)
	}

	// Three depots in different corners.
	depots := []int32{0, int32(rows*cols - 1), int32(rows/2*cols + cols/2)}
	nearest, err := eng.Nearest(depots)
	if err != nil {
		log.Fatal(err)
	}

	// Exact reference: multi-source Dijkstra via a super-source trick is
	// equivalent to the min over per-depot runs.
	ref := make([]float64, g.N)
	for i := range ref {
		ref[i] = -1
	}
	for _, d := range depots {
		dd, _ := exact.DijkstraGraph(g, d)
		for v := range dd {
			if ref[v] < 0 || dd[v] < ref[v] {
				ref[v] = dd[v]
			}
		}
	}
	worst := 1.0
	for v := range nearest {
		if ref[v] > 0 {
			if r := nearest[v] / ref[v]; r > worst {
				worst = r
			}
		}
	}
	fmt.Printf("nearest-depot distances: max stretch %.4f (≤ 1.25 guaranteed)\n", worst)

	// The hop-reduction effect: rounds to reach 1.25-approx distances
	// from an ordinary intersection with and without the hopset. The
	// round cap is the hopset's β-derived query budget plus generous
	// slack — never the worst-case n rounds (an O(n·m) scan on a graph
	// this shape); plain Bellman–Ford needs ~hop-diameter rounds, which
	// the slack comfortably covers here.
	src := int32(17*cols + 29) // an ordinary intersection, not a depot/center
	h := eng.Hopset()
	budget := eng.HopBudget()
	maxRounds := 8*budget + 64
	exactSrc, _ := exact.DijkstraGraph(g, src)

	measure := func(label string, a *adj.Adj) int {
		tr := pram.New()
		start := time.Now()
		rounds := relax.RoundsToApprox(a, []int32{src}, exactSrc, 0.25, maxRounds, tr)
		elapsed := time.Since(start)
		scanned := tr.Snapshot().Work // the engine charges only arcs actually scanned
		if rounds < 0 {
			fmt.Printf("  %-15s >%d rounds (cap), %8d arcs scanned, %s\n",
				label, maxRounds, scanned, elapsed.Round(10*time.Microsecond))
		} else {
			fmt.Printf("  %-15s %4d rounds, %8d arcs scanned, %s\n",
				label, rounds, scanned, elapsed.Round(10*time.Microsecond))
		}
		return rounds
	}
	fmt.Printf("Bellman–Ford to 1.25-approx from %d (round cap %d = 8·budget+64):\n", src, maxRounds)
	plain := measure("without hopset", adj.Build(g, nil))
	with := measure("with hopset", adj.Build(h.G, h.Extras()))
	if plain > 0 && with > 0 {
		fmt.Printf("hop reduction: %.1fx fewer rounds (PRAM depth); the frontier-sparse engine keeps\n", float64(plain)/float64(with))
		fmt.Printf("the plain scan's work at the wave frontier instead of %d full %d-arc sweeps\n",
			plain, 2*g.M())
	}
}

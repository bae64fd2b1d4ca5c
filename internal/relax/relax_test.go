package relax

import (
	"math"
	"testing"

	"repro/internal/adj"
	"repro/internal/exact"
	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/pram"
	"repro/internal/testkit"
)

// naiveRun is an independent reference implementation of the documented
// semantics — double-buffered full scans with (distance, parent, arc)
// tie-breaking — deliberately sharing no code with the engine, so an
// engine bug cannot hide inside its own reference.
func naiveRun(a *adj.Adj, sources []int32, maxRounds int) *Result {
	n := a.N
	res := &Result{
		Dist:      make([]float64, n),
		Parent:    make([]int32, n),
		ParentArc: make([]int32, n),
	}
	for v := 0; v < n; v++ {
		res.Dist[v] = math.Inf(1)
		res.Parent[v] = -1
		res.ParentArc[v] = -1
	}
	for _, s := range sources {
		res.Dist[s] = 0
	}
	nd := make([]float64, n)
	np := make([]int32, n)
	na := make([]int32, n)
	for round := 0; round < maxRounds; round++ {
		changed := false
		for v := 0; v < n; v++ {
			bd, bp, ba := res.Dist[v], res.Parent[v], res.ParentArc[v]
			for arc := a.Off[v]; arc < a.Off[v+1]; arc++ {
				u := a.Nbr[arc]
				d := res.Dist[u] + a.Wt[arc]
				if d < bd || (d == bd && (u < bp || (u == bp && arc < ba))) {
					bd, bp, ba = d, u, arc
				}
			}
			nd[v], np[v], na[v] = bd, bp, ba
			if bd != res.Dist[v] || bp != res.Parent[v] || ba != res.ParentArc[v] {
				changed = true
			}
		}
		copy(res.Dist, nd)
		copy(res.Parent, np)
		copy(res.ParentArc, na)
		res.Rounds = round + 1
		if !changed {
			res.Converged = true
			break
		}
	}
	return res
}

func sameResult(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if got.Rounds != want.Rounds || got.Converged != want.Converged {
		t.Fatalf("%s: rounds/converged %d/%v, want %d/%v",
			label, got.Rounds, got.Converged, want.Rounds, want.Converged)
	}
	for v := range want.Dist {
		if got.Dist[v] != want.Dist[v] || got.Parent[v] != want.Parent[v] ||
			got.ParentArc[v] != want.ParentArc[v] {
			t.Fatalf("%s: vertex %d label (%v,%d,%d), want (%v,%d,%d)",
				label, v, got.Dist[v], got.Parent[v], got.ParentArc[v],
				want.Dist[v], want.Parent[v], want.ParentArc[v])
		}
	}
}

// propertyGraphs builds the workload mix of the acceptance criteria from
// the shared deterministic testkit: random Gnm, grid, power-law, and a
// near-tree narrow-frontier adversary, across seeds.
func propertyGraphs(seed int64) []testkit.NamedGraph {
	return []testkit.NamedGraph{
		{Name: "gnm", G: testkit.Gnm(300, seed)},
		{Name: "grid", G: testkit.Grid(288, seed)},
		{Name: "powerlaw", G: testkit.Social(256, seed)},
		{Name: "sparse", G: testkit.Sparse(200, seed)},
	}
}

// TestSparseBitIdenticalToDense is the engine's central property: over
// random graph families, seeds, worker counts, source sets and round
// budgets, the adaptive and the always-sparse engines produce results
// bit-identical to the dense reference kernel (and to an independent
// naive implementation).
func TestSparseBitIdenticalToDense(t *testing.T) {
	old := par.Workers()
	defer par.SetWorkers(old)
	for seed := int64(0); seed < 3; seed++ {
		for _, gc := range propertyGraphs(seed) {
			a := adj.Build(gc.G, nil)
			n := gc.G.N
			sourceSets := [][]int32{
				{0},
				{int32(n / 2)},
				{0, int32(n - 1), int32(n / 3)},
				{int32(n - 1), int32(n - 1)}, // duplicates must be harmless
			}
			for _, srcs := range sourceSets {
				for _, budget := range []int{1, 3, n} {
					want := naiveRun(a, srcs, budget)
					for _, workers := range []int{1, 4} {
						par.SetWorkers(workers)
						dense := Run(a, srcs, budget, Options{ForceDense: true})
						sparse := Run(a, srcs, budget, Options{DenseFraction: 1.5})
						adaptive := Run(a, srcs, budget, Options{})
						label := func(kind string) string {
							return gc.Name + "/" + kind
						}
						sameResult(t, label("dense-vs-naive"), dense, want)
						sameResult(t, label("sparse-vs-naive"), sparse, want)
						sameResult(t, label("adaptive-vs-naive"), adaptive, want)
						if sparse.Stats.DenseRounds != 0 {
							t.Fatalf("%s: always-sparse engine ran %d dense rounds",
								gc.Name, sparse.Stats.DenseRounds)
						}
					}
				}
			}
		}
	}
}

// TestSparseScansFewerArcs checks the point of the engine: on a
// high-diameter (narrow-frontier) workload the sparse kernel scans far
// fewer arcs than the dense reference.
func TestSparseScansFewerArcs(t *testing.T) {
	g := graph.Grid(48, 48, graph.UniformWeights(1, 3), 7)
	a := adj.Build(g, nil)
	dense := Run(a, []int32{0}, g.N, Options{ForceDense: true})
	sparse := Run(a, []int32{0}, g.N, Options{})
	sameResult(t, "grid", sparse, dense)
	if sparse.Stats.ScannedArcs*2 > dense.Stats.ScannedArcs {
		t.Fatalf("sparse scanned %d arcs, dense %d — want ≥2× fewer",
			sparse.Stats.ScannedArcs, dense.Stats.ScannedArcs)
	}
}

func TestExplorationStepping(t *testing.T) {
	g := graph.Path(30, graph.UnitWeights(), 1)
	a := adj.Build(g, nil)
	e := Start(a, []int32{0}, Options{})
	steps := 0
	for e.Step() {
		steps++
		if d := e.Dist(); d[steps] != float64(steps) {
			t.Fatalf("after %d steps, dist[%d]=%v", steps, steps, d[steps])
		}
	}
	res := e.Finish()
	if !res.Converged || res.Rounds != steps+1 {
		t.Fatalf("converged=%v rounds=%d steps=%d", res.Converged, res.Rounds, steps)
	}
	if res.Dist[29] != 29 {
		t.Fatalf("dist[29]=%v", res.Dist[29])
	}
	// Finish is idempotent and Counters see exactly one exploration.
	if again := e.Finish(); again != res {
		t.Fatal("Finish not idempotent")
	}
}

func TestCountersAccumulate(t *testing.T) {
	g := graph.Grid(12, 12, graph.UnitWeights(), 3)
	a := adj.Build(g, nil)
	var c Counters
	for i := 0; i < 3; i++ {
		Run(a, []int32{int32(i)}, g.N, Options{Counters: &c})
	}
	s := c.Snapshot()
	if s.Explorations != 3 || s.ScannedArcs == 0 || s.DenseRounds+s.SparseRounds == 0 {
		t.Fatalf("counters: %+v", s)
	}
	// A nil Counters must be a no-op.
	var nilc *Counters
	nilc.Add(Stats{ScannedArcs: 1})
	if got := nilc.Snapshot(); got != (CounterSnapshot{}) {
		t.Fatalf("nil counters: %+v", got)
	}
}

func TestTrackerChargesScannedArcs(t *testing.T) {
	g := graph.Grid(20, 20, graph.UnitWeights(), 1)
	a := adj.Build(g, nil)
	tr := pram.New()
	res := Run(a, []int32{0}, g.N, Options{Tracker: tr})
	c := tr.Snapshot()
	if c.Depth != int64(res.Rounds) {
		t.Fatalf("depth %d != rounds %d", c.Depth, res.Rounds)
	}
	if c.Work != res.Stats.ScannedArcs {
		t.Fatalf("work %d != scanned arcs %d", c.Work, res.Stats.ScannedArcs)
	}
}

// A hop-limited run is charged exactly its round budget as depth.
func TestTrackerCharged(t *testing.T) {
	tr := pram.New()
	g := graph.Path(20, graph.UnitWeights(), 1)
	Run(adj.Build(g, nil), []int32{0}, 5, Options{Tracker: tr})
	if c := tr.Snapshot(); c.Depth != 5 || c.Work == 0 {
		t.Fatalf("tracker: %v", c)
	}
}

func TestConvergedMatchesDijkstra(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		g := graph.Gnm(100, 300, graph.UniformWeights(1, 7), seed)
		a := adj.Build(g, nil)
		res := Run(a, []int32{0}, g.N, Options{})
		if !res.Converged {
			t.Fatal("did not converge within n rounds")
		}
		want, _ := exact.Dijkstra(a, 0)
		for v := 0; v < g.N; v++ {
			if math.Abs(res.Dist[v]-want[v]) > 1e-9 {
				t.Fatalf("seed %d vertex %d: %v vs dijkstra %v", seed, v, res.Dist[v], want[v])
			}
		}
	}
}

func TestMultiSource(t *testing.T) {
	g := graph.Path(10, graph.UnitWeights(), 1)
	res := Run(adj.Build(g, nil), []int32{0, 9}, g.N, Options{})
	want := []float64{0, 1, 2, 3, 4, 4, 3, 2, 1, 0}
	for v, w := range want {
		if res.Dist[v] != w {
			t.Fatalf("dist=%v want %v", res.Dist, want)
		}
	}
}

func TestPathTo(t *testing.T) {
	g := graph.Path(6, graph.UnitWeights(), 1)
	res := Run(adj.Build(g, nil), []int32{0}, 10, Options{})
	path := res.PathTo(5)
	want := []int32{0, 1, 2, 3, 4, 5}
	if len(path) != len(want) {
		t.Fatalf("path=%v", path)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("path=%v want %v", path, want)
		}
	}
	// Unreached vertex: disconnected graph.
	g2 := graph.MustFromEdges(3, []graph.Edge{graph.E(0, 1, 1)})
	res2 := Run(adj.Build(g2, nil), []int32{0}, 5, Options{})
	if res2.PathTo(2) != nil {
		t.Fatal("unreached vertex returned a path")
	}
}

func TestRoundsToApprox(t *testing.T) {
	g := graph.Path(50, graph.UnitWeights(), 1)
	a := adj.Build(g, nil)
	exact, _ := exact.Dijkstra(a, 0)
	// Exact distances need exactly 49 rounds on the path.
	if r := RoundsToApprox(a, []int32{0}, exact, 0, 60, nil); r != 49 {
		t.Fatalf("rounds=%d want 49", r)
	}
	// Insufficient budget.
	if r := RoundsToApprox(a, []int32{0}, exact, 0, 10, nil); r != -1 {
		t.Fatalf("rounds=%d want -1", r)
	}
	// Zero rounds suffice when the reference is trivial (source only).
	ref := make([]float64, g.N)
	for v := range ref {
		ref[v] = math.Inf(1)
	}
	ref[0] = 0
	if r := RoundsToApprox(a, []int32{0}, ref, 0, 5, nil); r != 0 {
		t.Fatalf("rounds=%d want 0", r)
	}
}

func TestRoundsToApproxConvergedShort(t *testing.T) {
	// If BF converges without meeting the target (impossible reference),
	// RoundsToApprox must return -1 rather than loop.
	g := graph.Path(10, graph.UnitWeights(), 1)
	a := adj.Build(g, nil)
	ref := make([]float64, g.N)
	for v := range ref {
		ref[v] = 0.1 // unattainably small
	}
	if r := RoundsToApprox(a, []int32{0}, ref, 0, 100, nil); r != -1 {
		t.Fatalf("rounds=%d want -1", r)
	}
}

func TestEmptySources(t *testing.T) {
	g := graph.Path(5, graph.UnitWeights(), 1)
	a := adj.Build(g, nil)
	for _, opts := range []Options{{}, {ForceDense: true}} {
		res := Run(a, nil, 10, opts)
		if !res.Converged {
			t.Fatal("empty-source run must converge immediately")
		}
		for v := range res.Dist {
			if !math.IsInf(res.Dist[v], 1) || res.Parent[v] != -1 {
				t.Fatalf("vertex %d: %v/%d", v, res.Dist[v], res.Parent[v])
			}
		}
	}
}

// FuzzSparseMatchesDense derives a small random graph and source set from
// the fuzz input and asserts bit-identical sparse/dense results.
func FuzzSparseMatchesDense(f *testing.F) {
	f.Add(int64(1), uint8(40), uint8(90), uint8(0))
	f.Add(int64(99), uint8(7), uint8(3), uint8(5))
	f.Add(int64(-5), uint8(200), uint8(255), uint8(128))
	f.Fuzz(func(t *testing.T, seed int64, nb, mb, sb uint8) {
		n := int(nb)%120 + 2
		m := int(mb) * 2
		g := graph.Gnm(n, m, graph.UniformWeights(1, 9), seed)
		a := adj.Build(g, nil)
		srcs := []int32{int32(int(sb) % n)}
		if sb%3 == 0 {
			srcs = append(srcs, int32(n-1))
		}
		want := Run(a, srcs, n, Options{ForceDense: true})
		got := Run(a, srcs, n, Options{DenseFraction: 1.5})
		sameResult(t, "fuzz", got, want)
	})
}

// TestRunOffsets checks the offset-seeded exploration against its virtual
// super-source semantics: RunOffsets(sources, offsets) must produce exactly
// the labels of Run on a graph with one extra vertex attached to every
// source by an edge of weight offsets[i] (distances shifted by nothing —
// the super-source is at distance 0), with +Inf offsets dropping their
// source and duplicate sources keeping the smallest offset.
func TestRunOffsets(t *testing.T) {
	g := testkit.Grid(144, 7)
	a := adj.Build(g, nil)

	// Reference: augmented graph with super-source s* = n.
	sources := []int32{3, 77, 140, 77}
	offsets := []float64{2.5, 0.75, math.Inf(1), 4.0}
	var aug []graph.Edge
	for _, e := range g.Edges {
		aug = append(aug, e)
	}
	super := int32(g.N)
	aug = append(aug, graph.E(3, super, 2.5), graph.E(77, super, 0.75))
	ga := graph.MustFromEdges(g.N+1, aug)
	ref := Run(adj.Build(ga, nil), []int32{super}, 4*g.N, Options{})

	got, err := RunOffsets(a, sources, offsets, 4*g.N, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Converged {
		t.Fatal("offset exploration did not converge")
	}
	for v := 0; v < g.N; v++ {
		if got.Dist[v] != ref.Dist[v] {
			t.Fatalf("vertex %d: offset dist %v, super-source dist %v", v, got.Dist[v], ref.Dist[v])
		}
	}
	// Offset sources stay parentless, like ordinary sources.
	if got.Parent[77] != -1 || got.Dist[77] != 0.75 {
		t.Fatalf("source 77: (dist,parent) = (%v,%d), want (0.75,-1)", got.Dist[77], got.Parent[77])
	}
	infRes, err := RunOffsets(a, []int32{5}, []float64{math.Inf(1)}, g.N, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(infRes.Dist[5], 1) {
		t.Fatal("+Inf offset seeded its source")
	}
}

// TestRunOffsetsDeterministic pins worker-count independence of the
// offset-seeded path, same discipline as the zero-offset engine.
func TestRunOffsetsDeterministic(t *testing.T) {
	defer par.SetWorkers(par.SetWorkers(1))
	g := testkit.Gnm(600, 11)
	a := adj.Build(g, nil)
	sources := []int32{0, 17, 599, 301}
	offsets := []float64{0, 3.25, 1.5, math.Inf(1)}
	want, err := RunOffsets(a, sources, offsets, 64, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 8} {
		par.SetWorkers(w)
		got, err := RunOffsets(a, sources, offsets, 64, Options{})
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, "offsets", got, want)
	}
}

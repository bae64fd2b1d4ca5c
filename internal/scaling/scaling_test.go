package scaling

import (
	"math"
	"testing"

	"repro/internal/adj"
	"repro/internal/exact"
	"repro/internal/graph"
	"repro/internal/hopset"
	"repro/internal/par"
	"repro/internal/pathrep"
	"repro/internal/relax"
)

// wideWeightGraph returns a connected graph whose weights span many powers
// of two — the regime the Klein–Sairam reduction exists for.
func wideWeightGraph(n, m, scales int, seed int64) *graph.Graph {
	return graph.Gnm(n, m, graph.GeometricScaleWeights(scales), seed)
}

func checkKSStretch(t *testing.T, r *Result, eps float64) {
	t.Helper()
	h := r.H
	a := adj.Build(h.G, h.Extras())
	// The reduction's hopbound is ~6β+5 per composition level; allow the
	// same per-level slack as the core tests times the composition factor.
	budget := 6*h.Sched.HopBudget()*(h.Sched.Ell+2) + 5
	n := h.G.N
	for _, s := range []int32{0, int32(n / 2), int32(n - 1)} {
		ref, _ := exact.DijkstraGraph(h.G, s)
		res := relax.Run(a, []int32{s}, n+1, relax.Options{})
		for v := 0; v < n; v++ {
			if math.IsInf(ref[v], 1) {
				continue
			}
			if res.Dist[v] < ref[v]-1e-9 {
				t.Fatalf("source %d vertex %d: %v below exact %v (hopset shortcuts)", s, v, res.Dist[v], ref[v])
			}
		}
		if r := relax.RoundsToApprox(a, []int32{s}, ref, eps, budget, nil); r < 0 {
			t.Fatalf("source %d: (1+%v)-approx not reached in %d rounds", s, eps, budget)
		}
	}
}

func TestKSWideWeights(t *testing.T) {
	g := wideWeightGraph(96, 320, 12, 1)
	r, err := Build(g, Params{Epsilon: 0.5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.RelevantScales == 0 {
		t.Fatal("no relevant scales on a wide-weight graph")
	}
	if err := r.H.Check(); err != nil {
		t.Fatal(err)
	}
	checkKSStretch(t, r, 0.5)
}

func TestKSStarBound(t *testing.T) {
	// Eq. (24): |S| ≤ n·log₂ n.
	for seed := int64(0); seed < 3; seed++ {
		g := wideWeightGraph(128, 400, 10, seed)
		r, err := Build(g, Params{Epsilon: 0.5}, nil)
		if err != nil {
			t.Fatal(err)
		}
		bound := float64(g.N) * math.Log2(float64(g.N))
		if float64(r.Stars) > bound {
			t.Fatalf("seed %d: %d stars exceed n·log n = %.0f", seed, r.Stars, bound)
		}
	}
}

func TestKSSizeBound(t *testing.T) {
	// Theorem C.2: O(n^{1+1/κ}·log n) total size. Check against the
	// explicit ledger with a modest constant.
	g := wideWeightGraph(128, 512, 10, 7)
	p := Params{Epsilon: 0.5, Kappa: 3}
	r, err := Build(g, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	n := float64(g.N)
	bound := 4 * math.Pow(n, 1+1.0/3.0) * math.Log2(n)
	if float64(r.H.Size()) > bound {
		t.Fatalf("size %d exceeds 4·n^{4/3}·log n = %.0f", r.H.Size(), bound)
	}
}

func TestKSUnitWeightsStillWork(t *testing.T) {
	// Λ = poly(n) inputs must work too (the reduction is then almost a
	// no-op: singleton nodes at every relevant scale).
	g := graph.Gnm(80, 240, graph.UnitWeights(), 3)
	r, err := Build(g, Params{Epsilon: 0.5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkKSStretch(t, r, 0.5)
}

func TestKSPathReporting(t *testing.T) {
	g := wideWeightGraph(72, 220, 8, 5)
	r, err := Build(g, Params{Epsilon: 0.5, RecordPaths: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.H.Check(); err != nil {
		t.Fatal(err)
	}
	// Appendix D: the assembled hopset supports SPT extraction over the
	// original graph.
	budget := 6*r.H.Sched.HopBudget()*(r.H.Sched.Ell+2) + 5
	spt, err := pathrep.BuildSPT(r.H, 0, budget, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := spt.Validate(r.H); err != nil {
		t.Fatal(err)
	}
	ref, _ := exact.DijkstraGraph(r.H.G, 0)
	for v := 0; v < g.N; v++ {
		if math.IsInf(ref[v], 1) {
			continue
		}
		if spt.Dist[v] < ref[v]-1e-9 {
			t.Fatalf("vertex %d: SPT below exact", v)
		}
		if spt.Dist[v] > (1+0.5)*ref[v]+1e-9 {
			t.Fatalf("vertex %d: SPT distance %v exceeds 1.5·%v", v, spt.Dist[v], ref[v])
		}
	}
}

func TestKSDeterministicAcrossWorkers(t *testing.T) {
	old := par.Workers()
	defer par.SetWorkers(old)
	g := wideWeightGraph(96, 300, 9, 11)
	par.SetWorkers(1)
	ref, err := Build(g, Params{Epsilon: 0.5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 8} {
		par.SetWorkers(w)
		r, err := Build(g, Params{Epsilon: 0.5}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(r.H.Edges) != len(ref.H.Edges) {
			t.Fatalf("workers=%d: %d edges vs %d", w, len(r.H.Edges), len(ref.H.Edges))
		}
		for i := range ref.H.Edges {
			if r.H.Edges[i] != ref.H.Edges[i] {
				t.Fatalf("workers=%d edge %d differs", w, i)
			}
		}
	}
}

func TestKSLedgersPopulated(t *testing.T) {
	g := wideWeightGraph(64, 200, 10, 13)
	r, err := Build(g, Params{Epsilon: 0.5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.NodeCount == 0 || r.NodeEdgeCount == 0 {
		t.Fatalf("ledgers empty: %+v", r)
	}
	// Eq. (26)/(27) shapes with generous constants.
	if r.NodeCount > 4*int64(g.N)*int64(math.Log2(float64(g.N))+1) {
		t.Fatalf("node count %d out of O(n log n) shape", r.NodeCount)
	}
	if r.NodeEdgeCount > 4*int64(g.M())*int64(math.Log2(float64(g.N))+10) {
		t.Fatalf("node edges %d out of O(m log n) shape", r.NodeEdgeCount)
	}
}

func TestKSErrors(t *testing.T) {
	if _, err := Build(nil, Params{Epsilon: 0.5}, nil); err == nil {
		t.Fatal("nil graph accepted")
	}
	g := graph.Path(10, graph.UnitWeights(), 1)
	if _, err := Build(g, Params{Epsilon: 0}, nil); err == nil {
		t.Fatal("epsilon 0 accepted")
	}
}

func TestKSStarEdgesRealizable(t *testing.T) {
	// Every star edge must weigh at least the true distance between its
	// endpoints (soundness in the original graph).
	g := wideWeightGraph(64, 180, 8, 17)
	r, err := Build(g, Params{Epsilon: 0.5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	byU := map[int32][]hopset.Edge{}
	for _, e := range r.H.Edges {
		byU[e.U] = append(byU[e.U], e)
	}
	for u, es := range byU {
		d, _ := exact.DijkstraGraph(r.H.G, u)
		for _, e := range es {
			if e.W < d[e.V]-1e-9 {
				t.Fatalf("edge (%d,%d) kind=%v w=%v below exact %v", e.U, e.V, e.Kind, e.W, d[e.V])
			}
		}
	}
}

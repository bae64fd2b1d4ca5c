package harness

import (
	"math"
	"time"

	"repro/internal/adj"
	"repro/internal/baseline"
	"repro/internal/exact"
	"repro/internal/graph"
	"repro/internal/hopset"
	"repro/internal/par"
	"repro/internal/pathrep"
	"repro/internal/pram"
	"repro/internal/relax"
	"repro/internal/scaling"
)

// Config scales the experiment sweeps.
type Config struct {
	// Quick shrinks every sweep for tests and CI; the full sweeps are what
	// EXPERIMENTS.md records.
	Quick bool
	Seed  int64
}

func (c Config) sizes(quick, full []int) []int {
	if c.Quick {
		return quick
	}
	return full
}

// All runs every experiment and returns their tables in order.
func All(cfg Config) []*Table {
	return []*Table{
		E1HopsetSize(cfg), E2Stretch(cfg), E3Work(cfg), E4SSSP(cfg),
		E5Depth(cfg), E6Phases(cfg), E7Stars(cfg), E8PathReport(cfg),
		E9KleinSairam(cfg), E10Derand(cfg), E11HopReduction(cfg),
		E12Speedup(cfg), E13Radii(cfg), E14Ledger(cfg),
		E15WeightModes(cfg), E16BetaSensitivity(cfg), E17Oracle(cfg),
	}
}

// maxStretchAt measures the worst distance ratio vs exact from the given
// sources after `budget` Bellman–Ford rounds over g ∪ extras.
func maxStretchAt(g *graph.Graph, extras []adj.Extra, budget int, srcs []int32) (worst float64) {
	a := adj.Build(g, extras)
	worst = 1
	for _, s := range srcs {
		ref, _ := exact.DijkstraGraph(g, s)
		res := relax.Run(a, []int32{s}, budget, relax.Options{})
		for v := 0; v < g.N; v++ {
			if math.IsInf(ref[v], 1) || ref[v] == 0 {
				continue
			}
			if r := res.Dist[v] / ref[v]; r > worst {
				worst = r
			}
		}
	}
	return worst
}

func defaultSources(n int) []int32 {
	return []int32{0, int32(n / 3), int32(2 * n / 3), int32(n - 1)}
}

func budgetOf(h *hopset.Hopset) int { return h.Sched.HopBudget() * (h.Sched.Ell + 2) }

// E1HopsetSize: Theorem 3.7 / eq. (10) — |H| ≤ ⌈log Λ⌉·n^{1+1/κ}.
func E1HopsetSize(cfg Config) *Table {
	t := &Table{
		ID: "E1", Title: "hopset size vs theorem bound",
		Claim: "Thm 3.7: |H| ≤ ⌈log Λ⌉·n^{1+1/κ}",
		Cols:  []string{"graph", "n", "m", "κ", "|H|", "bound", "|H|/bound"},
	}
	for _, n := range cfg.sizes([]int{128}, []int{256, 512, 1024, 2048}) {
		for _, kappa := range []int{2, 3, 4} {
			g := graph.Gnm(n, 4*n, graph.UniformWeights(1, 8), cfg.Seed+int64(n))
			h, err := hopset.Build(g, hopset.Params{Epsilon: 0.25, Kappa: kappa}, nil)
			if err != nil {
				panic(err)
			}
			bound := float64(h.Sched.Lambda+1) * hopset.SizeBound(n, kappa)
			t.AddRow("gnm", d(int64(n)), d(int64(g.M())), d(int64(kappa)),
				d(int64(h.Size())), f(bound), f(float64(h.Size())/bound))
		}
	}
	t.Notes = append(t.Notes, "ratio must stay < 1; it shrinks with n (the bound is loose)")
	return t
}

// E2Stretch: Theorem 3.7/3.8 — (1+ε) stretch at a bounded hop budget.
func E2Stretch(cfg Config) *Table {
	t := &Table{
		ID: "E2", Title: "stretch at bounded hop budget",
		Claim: "Thm 3.8: d^{(β)}_{G∪H} ≤ (1+ε)·d_G",
		Cols:  []string{"graph", "n", "ε", "max stretch", "1+ε", "budget", "ok"},
	}
	n := cfg.sizes([]int{192}, []int{1024})[0]
	gs := []struct {
		name string
		g    *graph.Graph
	}{
		{"gnm", graph.Gnm(n, 4*n, graph.UniformWeights(1, 6), cfg.Seed)},
		{"grid", graph.Grid(n/16, 16, graph.UniformWeights(1, 3), cfg.Seed)},
		{"powerlaw", graph.PowerLaw(n, 3, graph.UnitWeights(), cfg.Seed)},
	}
	for _, gc := range gs {
		for _, eps := range []float64{0.5, 0.25, 0.1} {
			h, err := hopset.Build(gc.g, hopset.Params{Epsilon: eps}, nil)
			if err != nil {
				panic(err)
			}
			worst := maxStretchAt(h.G, h.Extras(), budgetOf(h), defaultSources(h.G.N))
			t.AddRow(gc.name, d(int64(gc.g.N)), f(eps), f(worst), f(1+eps),
				d(int64(budgetOf(h))), okFail(worst <= 1+eps+1e-9))
		}
	}
	return t
}

// E3Work: Theorem 3.7 — work Õ((|E|+n^{1+1/κ})·n^ρ); fitted exponent.
func E3Work(cfg Config) *Table {
	t := &Table{
		ID: "E3", Title: "work scaling vs |E|·n^ρ",
		Claim: "Thm 3.7: O((|E|+n^{1+1/κ})·n^ρ) processors, polylog rounds",
		Cols:  []string{"ρ", "n", "m", "work", "m·n^ρ", "work/(m·n^ρ)", "fit exp"},
	}
	for _, rho := range []float64{0.25, 1.0 / 3.0, 0.45} {
		type pt struct{ logn, logw float64 }
		var pts []pt
		rows := [][]string{}
		for _, n := range cfg.sizes([]int{128, 256}, []int{128, 256, 512, 1024}) {
			g := graph.Gnm(n, 4*n, graph.UniformWeights(1, 4), cfg.Seed+int64(n))
			tr := pram.New()
			if _, err := hopset.Build(g, hopset.Params{Epsilon: 0.25, Rho: rho}, tr); err != nil {
				panic(err)
			}
			w := tr.Snapshot().Work
			ref := float64(g.M()) * math.Pow(float64(n), rho)
			pts = append(pts, pt{math.Log(float64(n)), math.Log(float64(w))})
			rows = append(rows, []string{f(rho), d(int64(n)), d(int64(g.M())),
				d(w), f(ref), f(float64(w) / ref), ""})
		}
		// Least-squares slope of log(work) vs log(n); m grows linearly in n,
		// so slope ≈ 1 + ρ + o(1) when the claim holds.
		slope := fitSlope(func(i int) (float64, float64) { return pts[i].logn, pts[i].logw }, len(pts))
		rows[len(rows)-1][6] = f(slope)
		for _, r := range rows {
			t.AddRow(r...)
		}
	}
	t.Notes = append(t.Notes, "fit exp is d log(work)/d log(n); claim predicts ≈ 1+ρ (m ∝ n) up to polylog factors")
	return t
}

func fitSlope(get func(i int) (x, y float64), n int) float64 {
	var sx, sy, sxx, sxy float64
	for i := 0; i < n; i++ {
		x, y := get(i)
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
	}
	den := float64(n)*sxx - sx*sx
	if den == 0 {
		return math.NaN()
	}
	return (float64(n)*sxy - sx*sy) / den
}

// E4SSSP: Theorem 3.8 — single- and multi-source approximate distances.
func E4SSSP(cfg Config) *Table {
	t := &Table{
		ID: "E4", Title: "aSSSD / aMSSD correctness and rounds",
		Claim: "Thm 3.8: (1+ε)-distances for S×V via |S| parallel β-hop Bellman–Ford",
		Cols:  []string{"graph", "|S|", "max stretch", "1+ε", "rounds", "ok"},
	}
	eps := 0.25
	n := cfg.sizes([]int{200}, []int{1024})[0]
	gs := []struct {
		name string
		g    *graph.Graph
	}{
		{"gnm", graph.Gnm(n, 4*n, graph.UniformWeights(1, 5), cfg.Seed)},
		{"community", graph.Community(n, 4, n, n/4, graph.UniformWeights(1, 3), cfg.Seed)},
	}
	for _, gc := range gs {
		h, err := hopset.Build(gc.g, hopset.Params{Epsilon: eps}, nil)
		if err != nil {
			panic(err)
		}
		a := adj.Build(h.G, h.Extras())
		for _, ns := range []int{1, 4, 16} {
			srcs := make([]int32, ns)
			for i := range srcs {
				srcs[i] = int32(i * h.G.N / ns)
			}
			worst := 1.0
			rounds := 0
			for _, s := range srcs {
				ref, _ := exact.DijkstraGraph(h.G, s)
				res := relax.Run(a, []int32{s}, budgetOf(h), relax.Options{})
				if res.Rounds > rounds {
					rounds = res.Rounds
				}
				for v := 0; v < h.G.N; v++ {
					if !math.IsInf(ref[v], 1) && ref[v] > 0 {
						if r := res.Dist[v] / ref[v]; r > worst {
							worst = r
						}
					}
				}
			}
			t.AddRow(gc.name, d(int64(ns)), f(worst), f(1+eps), d(int64(rounds)),
				okFail(worst <= 1+eps+1e-9))
		}
	}
	return t
}

// E5Depth: Theorem 3.7 — polylogarithmic depth; measured depth vs log³ n.
func E5Depth(cfg Config) *Table {
	t := &Table{
		ID: "E5", Title: "PRAM depth vs polylog(n)",
		Claim: "Thm 3.7: depth (log Λ)(log κρ+1/ρ)·β·log² n — polylog for Λ=poly(n)",
		Cols:  []string{"n", "depth", "log³n", "depth/log³n", "fit exp (log-log)"},
	}
	type pt struct{ x, y float64 }
	var pts []pt
	rows := [][]string{}
	for _, n := range cfg.sizes([]int{128, 256, 512}, []int{128, 256, 512, 1024, 2048}) {
		g := graph.Gnm(n, 4*n, graph.UniformWeights(1, 4), cfg.Seed+int64(n))
		tr := pram.New()
		if _, err := hopset.Build(g, hopset.Params{Epsilon: 0.25}, tr); err != nil {
			panic(err)
		}
		depth := tr.Snapshot().Depth
		l := math.Log2(float64(n))
		pts = append(pts, pt{math.Log(float64(n)), math.Log(float64(depth))})
		rows = append(rows, []string{d(int64(n)), d(depth), f(l * l * l), f(float64(depth) / (l * l * l)), ""})
	}
	slope := fitSlope(func(i int) (float64, float64) { return pts[i].x, pts[i].y }, len(pts))
	rows[len(rows)-1][4] = f(slope)
	for _, r := range rows {
		t.AddRow(r...)
	}
	t.Notes = append(t.Notes, "polylog depth ⇒ fit exponent ≪ 1 (work grows polynomially, depth polylogarithmically)")
	return t
}

// E6Phases: Lemmas 2.5–2.7 and eq. (5) — cluster-count decay per phase.
func E6Phases(cfg Config) *Table {
	t := &Table{
		ID: "E6", Title: "cluster decay per phase",
		Claim: "Lemma 2.5/2.6/2.7: |Pᵢ₊₁| ≤ |Pᵢ|/(degᵢ+1); |P_ℓ| ≤ n^ρ (eq. 5)",
		Cols:  []string{"scale", "phase", "|Pᵢ|", "degᵢ", "popular", "ruling", "super", "retired", "minSuper"},
	}
	// A sparse graph with κ=4 (smaller degree thresholds) exhibits genuine
	// multi-phase decay: some clusters are unpopular in phase 0 and retire,
	// superclusters re-enter phase 1, etc.
	n := cfg.sizes([]int{256}, []int{1024})[0]
	g := graph.Gnm(n, 2*n, graph.UniformWeights(1, 4), cfg.Seed)
	h, err := hopset.Build(g, hopset.Params{Epsilon: 0.25, Kappa: 4}, nil)
	if err != nil {
		panic(err)
	}
	shown := 0
	for _, st := range h.Stats {
		if st.Clusters <= 1 {
			continue
		}
		t.AddRow(d(int64(st.Scale)), d(int64(st.Phase)), d(int64(st.Clusters)),
			d(int64(st.Deg)), d(int64(st.Popular)), d(int64(st.Ruling)),
			d(int64(st.Superclustered)), d(int64(st.Retired)), d(int64(st.MinSuperSize)))
		shown++
		if shown >= 24 {
			t.Notes = append(t.Notes, "…truncated")
			break
		}
	}
	return t
}

// E7Stars: eq. (24) — the star-edge bound of the Klein–Sairam reduction.
func E7Stars(cfg Config) *Table {
	t := &Table{
		ID: "E7", Title: "Klein–Sairam star edges",
		Claim: "eq. (24): |S| ≤ n·log₂ n",
		Cols:  []string{"n", "weight scales", "|S|", "n·log n", "|S|/(n·log n)"},
	}
	for _, n := range cfg.sizes([]int{96}, []int{256, 512, 1024}) {
		for _, ws := range []int{8, 16} {
			g := graph.Gnm(n, 4*n, graph.GeometricScaleWeights(ws), cfg.Seed+int64(n))
			r, err := scaling.Build(g, scaling.Params{Epsilon: 0.5}, nil)
			if err != nil {
				panic(err)
			}
			bound := float64(n) * math.Log2(float64(n))
			t.AddRow(d(int64(n)), d(int64(ws)), d(int64(r.Stars)), f(bound),
				f(float64(r.Stars)/bound))
		}
	}
	return t
}

// E8PathReport: Theorem 4.6 — SPT validity and memory-path lengths.
func E8PathReport(cfg Config) *Table {
	t := &Table{
		ID: "E8", Title: "path-reporting hopsets and (1+ε)-SPT",
		Claim: "Thm 4.6: (1+ε)-SPT ⊆ E in polylog time; path lengths ≤ σ (eq. 20)",
		Cols:  []string{"graph", "n", "max stretch", "1+ε", "max |A(u,v)|", "peels", "valid"},
	}
	eps := 0.25
	n := cfg.sizes([]int{160}, []int{512})[0]
	gs := []struct {
		name string
		g    *graph.Graph
	}{
		{"gnm", graph.Gnm(n, 3*n, graph.UniformWeights(1, 5), cfg.Seed)},
		{"grid", graph.Grid(n/16, 16, graph.UnitWeights(), cfg.Seed)},
	}
	for _, gc := range gs {
		h, err := hopset.Build(gc.g, hopset.Params{Epsilon: eps, RecordPaths: true}, nil)
		if err != nil {
			panic(err)
		}
		spt, err := pathrep.BuildSPT(h, 0, 0, nil)
		if err != nil {
			panic(err)
		}
		valid := spt.Validate(h) == nil
		ref, _ := exact.DijkstraGraph(h.G, 0)
		worst := 1.0
		for v := 0; v < h.G.N; v++ {
			if !math.IsInf(ref[v], 1) && ref[v] > 0 {
				if r := spt.Dist[v] / ref[v]; r > worst {
					worst = r
				}
			}
		}
		t.AddRow(gc.name, d(int64(gc.g.N)), f(worst), f(1+eps),
			d(int64(h.MaxMemoryPathLen())), d(int64(spt.PeelRounds)),
			okFail(valid && worst <= 1+eps+1e-9))
	}
	return t
}

// E9KleinSairam: Theorems C.2/C.3/D.1 — aspect-ratio-free construction.
func E9KleinSairam(cfg Config) *Table {
	t := &Table{
		ID: "E9", Title: "aspect-ratio-free hopsets (Klein–Sairam)",
		Claim: "Thm C.2: size O(n^{1+1/κ}·log n), stretch 1+ε, for any Λ",
		Cols:  []string{"n", "log₂Λ", "scales", "|H|", "n^{4/3}·log n", "max stretch", "1+ε", "ok"},
	}
	eps := 0.5
	for _, n := range cfg.sizes([]int{96}, []int{256, 512}) {
		wss := []int{10, 24}
		if cfg.Quick {
			wss = []int{10}
		}
		for _, ws := range wss {
			g := graph.Gnm(n, 3*n, graph.GeometricScaleWeights(ws), cfg.Seed+int64(ws))
			r, err := scaling.Build(g, scaling.Params{Epsilon: eps}, nil)
			if err != nil {
				panic(err)
			}
			h := r.H
			budget := 6*h.Sched.HopBudget()*(h.Sched.Ell+2) + 5
			worst := maxStretchAt(h.G, h.Extras(), budget, defaultSources(h.G.N))
			bound := math.Pow(float64(n), 4.0/3.0) * math.Log2(float64(n))
			logLam := math.Log2(h.G.AspectRatioUpperBound())
			t.AddRow(d(int64(n)), f(logLam), d(int64(r.RelevantScales)),
				d(int64(h.Size())), f(bound), f(worst), f(1+eps),
				okFail(worst <= 1+eps+1e-9))
		}
	}
	return t
}

// E10Derand: the derandomization claim of §1.2 — ruling sets vs sampling.
func E10Derand(cfg Config) *Table {
	t := &Table{
		ID: "E10", Title: "deterministic ruling sets vs randomized sampling",
		Claim: "§1.2: ruling sets replace sampling with no loss in size or stretch",
		Cols:  []string{"method", "seed", "|H|", "max stretch", "1+ε", "build ms"},
	}
	eps := 0.25
	n := cfg.sizes([]int{192}, []int{768})[0]
	g := graph.Gnm(n, 4*n, graph.UniformWeights(1, 6), cfg.Seed)
	start := time.Now()
	h, err := hopset.Build(g, hopset.Params{Epsilon: eps}, nil)
	if err != nil {
		panic(err)
	}
	detMS := time.Since(start).Milliseconds()
	worst := maxStretchAt(h.G, h.Extras(), budgetOf(h), defaultSources(h.G.N))
	t.AddRow("deterministic", "-", d(int64(h.Size())), f(worst), f(1+eps), d(detMS))
	ng, _ := g.Normalized()
	for seed := int64(0); seed < 3; seed++ {
		start = time.Now()
		edges, sched, err := baseline.RandHopset(g, baseline.RandHopsetParams{Epsilon: eps, Seed: cfg.Seed + 100}, seed)
		if err != nil {
			panic(err)
		}
		ms := time.Since(start).Milliseconds()
		extras := make([]adj.Extra, len(edges))
		for i, e := range edges {
			extras[i] = adj.Extra{U: e.U, V: e.V, W: e.W}
		}
		budget := sched.HopBudget() * (sched.Ell + 2)
		w := maxStretchAt(ng, extras, budget, defaultSources(ng.N))
		t.AddRow("randomized", d(seed), d(int64(len(edges))), f(w), f(1+eps), d(ms))
	}
	t.Notes = append(t.Notes, "shape: comparable sizes and stretch — the deterministic construction matches the randomized one it derandomizes")
	return t
}

// E11HopReduction: §1.1 motivation — BF rounds with vs without the hopset.
func E11HopReduction(cfg Config) *Table {
	t := &Table{
		ID: "E11", Title: "hop reduction on high-diameter graphs",
		Claim: "§1.1: hopsets make β-hop Bellman–Ford sufficient; plain BF needs ~hop-diameter rounds",
		Cols:  []string{"graph", "n", "diam", "rounds w/o H", "rounds w/ H", "speedup"},
	}
	eps := 0.25
	type gc struct {
		name string
		g    *graph.Graph
		diam int
	}
	var cases []gc
	if cfg.Quick {
		cases = []gc{
			{"path", graph.Path(512, graph.UnitWeights(), 1), 511},
			{"grid", graph.Grid(16, 32, graph.UnitWeights(), 1), 46},
		}
	} else {
		cases = []gc{
			{"path", graph.Path(4096, graph.UnitWeights(), 1), 4095},
			{"grid", graph.Grid(64, 64, graph.UnitWeights(), 1), 126},
			{"cycle", graph.Cycle(2048, graph.UnitWeights(), 1), 1024},
		}
	}
	for _, c := range cases {
		h, err := hopset.Build(c.g, hopset.Params{Epsilon: eps}, nil)
		if err != nil {
			panic(err)
		}
		// An interior source: vertex 0 is often a ruling-set center (IDs
		// break ties), which would flatter the hopset with direct edges.
		src := int32(c.g.N/3 + 1)
		a := adj.Build(h.G, h.Extras())
		ref, _ := exact.DijkstraGraph(h.G, src)
		with := relax.RoundsToApprox(a, []int32{src}, ref, eps, c.g.N, nil)
		without := relax.RoundsToApprox(adj.Build(h.G, nil), []int32{src}, ref, eps, c.g.N, nil)
		speedup := float64(without) / math.Max(1, float64(with))
		t.AddRow(c.name, d(int64(c.g.N)), d(int64(c.diam)), d(int64(without)),
			d(int64(with)), f(speedup))
	}
	t.Notes = append(t.Notes, "shape: speedup grows with diameter — the crossover where hopsets pay off")
	return t
}

// E12Speedup: wall-clock scalability of the work-depth simulation.
func E12Speedup(cfg Config) *Table {
	t := &Table{
		ID: "E12", Title: "parallel speedup of the simulation",
		Claim: "§1.5.1 model: the construction parallelizes across processors",
		Cols:  []string{"workers", "build ms", "speedup", "deterministic"},
	}
	n := cfg.sizes([]int{256}, []int{1024})[0]
	g := graph.Gnm(n, 8*n, graph.UniformWeights(1, 4), cfg.Seed)
	old := par.Workers()
	defer par.SetWorkers(old)
	var base float64
	var refEdges []hopset.Edge
	for _, w := range []int{1, 2, 4, 8} {
		par.SetWorkers(w)
		start := time.Now()
		h, err := hopset.Build(g, hopset.Params{Epsilon: 0.25}, nil)
		if err != nil {
			panic(err)
		}
		ms := float64(time.Since(start).Microseconds()) / 1000
		if w == 1 {
			base = ms
			refEdges = h.Edges
		}
		same := len(h.Edges) == len(refEdges)
		for i := 0; same && i < len(refEdges); i++ {
			same = h.Edges[i] == refEdges[i]
		}
		t.AddRow(d(int64(w)), f(ms), f(base/ms), okFail(same))
	}
	t.Notes = append(t.Notes, "identical outputs at every worker count: the determinism claim under real parallelism")
	return t
}

// E13Radii: Lemma 2.2 / eq. (11) — measured radii vs the Rᵢ recurrence.
func E13Radii(cfg Config) *Table {
	t := &Table{
		ID: "E13", Title: "cluster radii vs worst-case recurrence",
		Claim: "Lemma 2.2: Rad(Pᵢ) ≤ Rᵢ where Rᵢ₊₁ = (2(1+ε)δᵢ+4Rᵢ)log n + Rᵢ",
		Cols:  []string{"scale", "phase", "measured rad", "Rᵢ bound", "ratio", "ok"},
	}
	n := cfg.sizes([]int{256}, []int{1024})[0]
	g := graph.Gnm(n, 6*n, graph.UniformWeights(1, 4), cfg.Seed)
	h, err := hopset.Build(g, hopset.Params{Epsilon: 0.25}, nil)
	if err != nil {
		panic(err)
	}
	shown := 0
	for _, st := range h.Stats {
		if st.MaxRad == 0 {
			continue
		}
		ok := st.MaxRad <= st.RBound+1e-9
		t.AddRow(d(int64(st.Scale)), d(int64(st.Phase)), f(st.MaxRad), f(st.RBound),
			f(st.MaxRad/st.RBound), okFail(ok))
		shown++
		if shown >= 16 {
			t.Notes = append(t.Notes, "…truncated")
			break
		}
	}
	return t
}

// E14Ledger: §3.1 eqs. (8)–(10) — per-scale edge counts.
func E14Ledger(cfg Config) *Table {
	t := &Table{
		ID: "E14", Title: "per-scale hopset size ledger",
		Claim: "eq. (9): |H_k| ≤ n^{1+1/κ} for every scale k",
		Cols:  []string{"scale", "|H_k|", "super", "interconnect", "n^{1+1/κ}", "ok"},
	}
	n := cfg.sizes([]int{256}, []int{1024})[0]
	g := graph.Gnm(n, 6*n, graph.UniformWeights(1, 8), cfg.Seed)
	h, err := hopset.Build(g, hopset.Params{Epsilon: 0.25}, nil)
	if err != nil {
		panic(err)
	}
	bound := hopset.SizeBound(n, 3)
	perScale := map[int][3]int{}
	for _, e := range h.Edges {
		c := perScale[int(e.Scale)]
		c[0]++
		if e.Kind == hopset.Superclustering {
			c[1]++
		} else {
			c[2]++
		}
		perScale[int(e.Scale)] = c
	}
	for k := h.Sched.K0; k <= h.Sched.Lambda; k++ {
		c := perScale[k]
		t.AddRow(d(int64(k)), d(int64(c[0])), d(int64(c[1])), d(int64(c[2])),
			f(bound), okFail(float64(c[0]) <= bound))
	}
	return t
}

// Fprint writes all tables to w.
func Fprint(w interface{ Write([]byte) (int, error) }, tables []*Table) {
	for _, t := range tables {
		t.Fprint(w)
	}
}

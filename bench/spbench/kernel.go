package main

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/adj"
	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/graph"
	"repro/internal/relax"
)

// kernelSources is how many workload sources the kernel pass times.
const kernelSources = 32

// kernelStats compares, on one goroutine and the same sources, the served
// hopset exploration against the two simpler baselines: plain frontier
// Bellman–Ford on G alone and exact Dijkstra.
type kernelStats struct {
	hopsetUs, plainUs, dijkstraUs, sptUs []float64
	hopsetArcs, plainArcs                []float64
	batch8Us                             []float64
}

// kernelPass times the solver's kernels on sources drawn from the workload.
func kernelPass(s *core.Solver, g *graph.Graph, sources []int32) (kernelStats, error) {
	var ks kernelStats
	ga := adj.Build(g, nil)
	for _, src := range sources {
		before := s.RelaxStats().ScannedArcs
		t := time.Now()
		if _, err := s.ApproxDistances(src); err != nil {
			return ks, err
		}
		ks.hopsetUs = append(ks.hopsetUs, us(time.Since(t)))
		ks.hopsetArcs = append(ks.hopsetArcs, float64(s.RelaxStats().ScannedArcs-before))

		t = time.Now()
		res := relax.Run(ga, []int32{src}, g.N, relax.Options{})
		ks.plainUs = append(ks.plainUs, us(time.Since(t)))
		if !res.Converged {
			return ks, fmt.Errorf("plain Bellman–Ford from %d did not converge in n rounds", src)
		}
		ks.plainArcs = append(ks.plainArcs, float64(res.Stats.ScannedArcs))

		t = time.Now()
		exact.Dijkstra(ga, src)
		ks.dijkstraUs = append(ks.dijkstraUs, us(time.Since(t)))

		t = time.Now()
		if _, err := s.SPT(src); err != nil {
			return ks, err
		}
		ks.sptUs = append(ks.sptUs, us(time.Since(t)))
	}
	for i := 0; i+8 <= len(sources); i += 8 {
		t := time.Now()
		if _, err := s.ApproxMultiSource(sources[i : i+8]); err != nil {
			return ks, err
		}
		ks.batch8Us = append(ks.batch8Us, us(time.Since(t)))
	}
	return ks, nil
}

// distinctSources returns the first k distinct sources of a fresh copy of
// the workload's stream.
func distinctSources(w *workload, n int, seed int64, k int) []int32 {
	st := newStream(w, n, seed)
	seen := map[int32]bool{}
	var out []int32
	for len(out) < k && len(out) < n {
		r := st.next()
		cand := []int32{r.src}
		if r.op == opMatrix {
			cand = r.sources
		}
		for _, s := range cand {
			if !seen[s] && len(out) < k {
				seen[s] = true
				out = append(out, s)
			}
		}
	}
	return out
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

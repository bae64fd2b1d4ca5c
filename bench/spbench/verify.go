package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"repro/internal/adj"
	"repro/internal/exact"
	"repro/internal/graph"
)

// relTol is the floating-point slack on every bound: served answers sum
// many float64 legs in a different order than Dijkstra does.
const relTol = 1e-9

// verifier checks served answers against exact Dijkstra on the graph the
// server was given.
type verifier struct {
	g     *graph.Graph
	a     *adj.Adj
	eps   float64
	exact map[int32][]float64
}

func newVerifier(g *graph.Graph, eps float64) *verifier {
	return &verifier{g: g, a: adj.Build(g, nil), eps: eps, exact: map[int32][]float64{}}
}

func (v *verifier) from(s int32) ([]float64, error) {
	if s < 0 || int(s) >= v.g.N {
		return nil, fmt.Errorf("vertex %d out of range", s)
	}
	d, ok := v.exact[s]
	if !ok {
		d, _ = exact.Dijkstra(v.a, s)
		v.exact[s] = d
	}
	return d, nil
}

// within checks one served distance (nil = JSON null) against exact.
func (v *verifier) within(ans *float64, ex float64) error {
	if math.IsInf(ex, 1) {
		if ans != nil {
			return fmt.Errorf("answer %g for an unreachable pair", *ans)
		}
		return nil
	}
	if ans == nil {
		return fmt.Errorf("null answer for a reachable pair (exact %g)", ex)
	}
	if *ans < ex*(1-relTol) || *ans > ex*(1+v.eps)*(1+relTol) {
		return fmt.Errorf("answer %g outside [%g, %g]", *ans, ex, ex*(1+v.eps))
	}
	return nil
}

// check verifies one kept answer of request r.
func (v *verifier) check(r request, body []byte) error {
	switch r.op {
	case opDist:
		var resp struct {
			Dist *float64 `json:"dist"`
		}
		if err := json.Unmarshal(body, &resp); err != nil {
			return err
		}
		ex, err := v.from(r.src)
		if err != nil {
			return err
		}
		if r.dst < 0 || int(r.dst) >= len(ex) {
			return fmt.Errorf("vertex %d out of range", r.dst)
		}
		return v.within(resp.Dist, ex[r.dst])
	case opRow:
		var resp struct {
			Dist []*float64 `json:"dist"`
		}
		if err := json.Unmarshal(body, &resp); err != nil {
			return err
		}
		ex, err := v.from(r.src)
		if err != nil {
			return err
		}
		if len(resp.Dist) != len(ex) {
			return fmt.Errorf("row has %d entries, want %d", len(resp.Dist), len(ex))
		}
		for t := range ex {
			if err := v.within(resp.Dist[t], ex[t]); err != nil {
				return fmt.Errorf("row %d→%d: %w", r.src, t, err)
			}
		}
		return nil
	case opMatrix:
		var resp struct {
			Matrix [][]*float64 `json:"matrix"`
		}
		if err := json.Unmarshal(body, &resp); err != nil {
			return err
		}
		if len(resp.Matrix) != len(r.sources) {
			return fmt.Errorf("matrix has %d rows, want %d", len(resp.Matrix), len(r.sources))
		}
		for i, s := range r.sources {
			ex, err := v.from(s)
			if err != nil {
				return err
			}
			if len(resp.Matrix[i]) != len(r.targets) {
				return fmt.Errorf("matrix row %d has %d cells, want %d", i, len(resp.Matrix[i]), len(r.targets))
			}
			for j, t := range r.targets {
				if err := v.within(resp.Matrix[i][j], ex[t]); err != nil {
					return fmt.Errorf("matrix %d→%d: %w", s, t, err)
				}
			}
		}
		return nil
	case opPath:
		var resp struct {
			Path   []int32  `json:"path"`
			Length *float64 `json:"length"`
		}
		if err := json.Unmarshal(body, &resp); err != nil {
			return err
		}
		ex, err := v.from(r.src)
		if err != nil {
			return err
		}
		return v.checkPath(r.src, r.dst, resp.Path, resp.Length, ex[r.dst])
	}
	return fmt.Errorf("unknown op %d", r.op)
}

// checkPath: the path must be a walk in G from u to v whose weight equals
// the reported length, and that length must be within (1+ε) of exact.
func (v *verifier) checkPath(u, t int32, path []int32, length *float64, ex float64) error {
	if path == nil {
		if !math.IsInf(ex, 1) {
			return fmt.Errorf("no path for a reachable pair %d→%d", u, t)
		}
		return nil
	}
	if len(path) == 0 || path[0] != u || path[len(path)-1] != t {
		return fmt.Errorf("path does not run from %d to %d", u, t)
	}
	w := 0.0
	for i := 1; i < len(path); i++ {
		a, b := path[i-1], path[i]
		if a < 0 || int(a) >= v.g.N || b < 0 || int(b) >= v.g.N {
			return fmt.Errorf("path vertex out of range")
		}
		ew, ok := v.g.HasEdge(a, b)
		if !ok {
			return fmt.Errorf("path uses a non-edge %d-%d", a, b)
		}
		w += ew
	}
	if length == nil || math.Abs(*length-w) > relTol*math.Max(1, w) {
		return fmt.Errorf("reported length %v differs from the walk's weight %g", length, w)
	}
	return v.within(length, ex)
}

// checkStale checks the stale-while-revalidate promise over results in
// completion order: a "stale":true answer never carries a newer version
// than the newest fresh answer seen before it.
func checkStale(results []*result) error {
	rs := append([]*result(nil), results...)
	sort.SliceStable(rs, func(i, j int) bool { return rs[i].done.Before(rs[j].done) })
	var fresh int64 = -1
	for _, r := range rs {
		if !r.ok() || r.version == 0 {
			continue
		}
		if !r.stale {
			fresh = max(fresh, r.version)
		} else if fresh >= 0 && r.version > fresh {
			return fmt.Errorf("stale answer at version %d after fresh answers only up to version %d", r.version, fresh)
		}
	}
	return nil
}

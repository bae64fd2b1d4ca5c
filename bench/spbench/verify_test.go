package main

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/exact"
	"repro/internal/graph"
	"repro/internal/testkit"
)

// answer renders v as the JSON the server would send.
func answer(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// jd maps +Inf to nil, as the server's JSON does.
func jd(d float64) *float64 {
	if math.IsInf(d, 1) {
		return nil
	}
	return &d
}

func TestVerifierAcceptsValidAnswers(t *testing.T) {
	g := testkit.Grid(64, 1)
	v := newVerifier(g, 0.25)
	ex, _ := v.from(3)
	stretched := func(d float64) *float64 { return jd(d * 1.2) }

	if err := v.check(request{op: opDist, src: 3, dst: 40}, answer(t, map[string]any{"dist": stretched(ex[40])})); err != nil {
		t.Errorf("dist: %v", err)
	}
	row := make([]*float64, len(ex))
	for i, d := range ex {
		row[i] = stretched(d)
	}
	if err := v.check(request{op: opRow, src: 3}, answer(t, map[string]any{"dist": row})); err != nil {
		t.Errorf("row: %v", err)
	}
	srcs, tgts := []int32{3, 5}, []int32{0, 63}
	if err := v.check(request{op: opMatrix, sources: srcs, targets: tgts}, answer(t, map[string]any{"matrix": matrixOf(v, srcs, tgts, 1)})); err != nil {
		t.Errorf("matrix: %v", err)
	}
	path, length := exactPath(t, v, 3, 40)
	if err := v.check(request{op: opPath, src: 3, dst: 40}, answer(t, map[string]any{"path": path, "length": length})); err != nil {
		t.Errorf("path: %v", err)
	}
}

func matrixOf(v *verifier, srcs, tgts []int32, scale float64) [][]*float64 {
	out := make([][]*float64, len(srcs))
	for i, s := range srcs {
		ex, _ := v.from(s)
		for _, tt := range tgts {
			out[i] = append(out[i], jd(ex[tt]*scale))
		}
	}
	return out
}

// exactPath walks Dijkstra's parent pointers from v back to u.
func exactPath(t *testing.T, v *verifier, u, to int32) ([]int32, float64) {
	t.Helper()
	_, parent := exact.Dijkstra(v.a, u)
	var rev []int32
	for x := to; x != -1; x = parent[x] {
		rev = append(rev, x)
	}
	path := make([]int32, len(rev))
	for i := range rev {
		path[i] = rev[len(rev)-1-i]
	}
	return path, walkWeight(v, path)
}

func TestVerifierCatchesCorruptedAnswers(t *testing.T) {
	g := testkit.Grid(64, 1)
	v := newVerifier(g, 0.25)
	ex, _ := v.from(3)
	path, length := exactPath(t, v, 3, 40)
	row := make([]*float64, len(ex))
	for i, d := range ex {
		row[i] = jd(d)
	}
	badRow := append([]*float64(nil), row...)
	badRow[17] = jd(ex[17] * 1.3)
	srcs, tgts := []int32{3, 5}, []int32{0, 63}
	badMatrix := matrixOf(v, srcs, tgts, 1)
	badMatrix[1][0] = jd(*badMatrix[1][0] * 0.5)
	// A valid walk that bounces over the last edge until it is far longer
	// than (1+ε)·exact.
	detour := append([]int32(nil), path...)
	for i := 0; i < 10; i++ {
		detour = append(detour, path[len(path)-2], path[len(path)-1])
	}

	cases := []struct {
		name string
		req  request
		body any
	}{
		{"dist below exact", request{op: opDist, src: 3, dst: 40}, map[string]any{"dist": ex[40] * 0.9}},
		{"dist above stretch", request{op: opDist, src: 3, dst: 40}, map[string]any{"dist": ex[40] * 1.3}},
		{"dist null for reachable", request{op: opDist, src: 3, dst: 40}, map[string]any{"dist": nil}},
		{"row entry out of bound", request{op: opRow, src: 3}, map[string]any{"dist": badRow}},
		{"row truncated", request{op: opRow, src: 3}, map[string]any{"dist": row[:10]}},
		{"matrix cell below exact", request{op: opMatrix, sources: srcs, targets: tgts}, map[string]any{"matrix": badMatrix}},
		{"path wrong endpoint", request{op: opPath, src: 3, dst: 41}, map[string]any{"path": path, "length": length}},
		{"path non-edge", request{op: opPath, src: 3, dst: 40}, map[string]any{"path": []int32{3, 40}, "length": ex[40]}},
		{"path length misreported", request{op: opPath, src: 3, dst: 40}, map[string]any{"path": path, "length": length * 1.01}},
		{"path too long", request{op: opPath, src: 3, dst: 40}, map[string]any{"path": detour, "length": walkWeight(v, detour)}},
		{"path missing", request{op: opPath, src: 3, dst: 40}, map[string]any{"path": nil, "length": nil}},
	}
	for _, c := range cases {
		if err := v.check(c.req, answer(t, c.body)); err == nil {
			t.Errorf("%s: not caught", c.name)
		}
	}
}

func walkWeight(v *verifier, p []int32) float64 {
	w := 0.0
	for i := 1; i < len(p); i++ {
		ew, _ := v.g.HasEdge(p[i-1], p[i])
		w += ew
	}
	return w
}

func TestVerifierUnreachable(t *testing.T) {
	g, err := graph.FromEdges(4, []graph.Edge{graph.E(0, 1, 1), graph.E(2, 3, 1)})
	if err != nil {
		t.Fatal(err)
	}
	v := newVerifier(g, 0.25)
	if err := v.check(request{op: opDist, src: 0, dst: 3}, []byte(`{"dist":null}`)); err != nil {
		t.Errorf("null for an unreachable pair rejected: %v", err)
	}
	if err := v.check(request{op: opDist, src: 0, dst: 3}, []byte(`{"dist":5}`)); err == nil {
		t.Error("a finite answer for an unreachable pair was not caught")
	}
	if err := v.check(request{op: opPath, src: 0, dst: 3}, []byte(`{"path":[0,1],"length":1}`)); err == nil {
		t.Error("a path to an unreachable vertex was not caught")
	}
}

func TestCheckStale(t *testing.T) {
	t0 := time.Now()
	res := func(ms int, ver int64, stale bool) *result {
		return &result{status: 200, done: t0.Add(time.Duration(ms) * time.Millisecond), version: ver, stale: stale}
	}
	ok := []*result{res(1, 1, false), res(2, 2, false), res(3, 1, true), res(4, 2, false)}
	if err := checkStale(ok); err != nil {
		t.Errorf("valid stale serving rejected: %v", err)
	}
	bad := []*result{res(1, 1, false), res(3, 2, true), res(2, 1, false)}
	if err := checkStale(bad); err == nil || !strings.Contains(err.Error(), "version 2") {
		t.Errorf("stale answer newer than every fresh one not caught: %v", err)
	}
}

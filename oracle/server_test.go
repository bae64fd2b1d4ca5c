package oracle

import (
	"encoding/json"
	"math"
	"net/http"
	"testing"

	"repro/internal/exact"
	"repro/internal/graph"
)

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("decoding %s: %v", url, err)
	}
	return resp.StatusCode
}

// TestServerDistEndToEnd: GET /graphs/{name}/dist returns scalar and
// vector answers that satisfy the (1+ε) guarantee against Dijkstra, and
// an unreachable target is a 200 with a null distance and path.
func TestServerDistEndToEnd(t *testing.T) {
	r, srv := newRegistryServer(t)
	g := registryGraph(150, 3) // the "road" graph
	ref, _ := exact.DijkstraGraph(g, 0)

	var scalar struct {
		Source int32    `json:"source"`
		Target int32    `json:"target"`
		Dist   *float64 `json:"dist"`
	}
	if code := getJSON(t, srv.URL+"/graphs/road/dist?source=0&target=99", &scalar); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if scalar.Source != 0 || scalar.Target != 99 || scalar.Dist == nil {
		t.Fatalf("scalar payload %+v", scalar)
	}
	if *scalar.Dist < ref[99]-1e-9 || *scalar.Dist > 1.25*ref[99]+1e-9 {
		t.Errorf("served dist %v outside [d, 1.25d] for exact %v", *scalar.Dist, ref[99])
	}

	var vector struct {
		Dist []*float64 `json:"dist"`
	}
	if code := getJSON(t, srv.URL+"/graphs/road/dist?source=0", &vector); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if len(vector.Dist) != g.N {
		t.Fatalf("vector length %d, want %d", len(vector.Dist), g.N)
	}
	for v, d := range vector.Dist {
		if d == nil || *d < ref[v]-1e-9 || *d > 1.25*ref[v]+1e-9 {
			t.Errorf("vertex %d: served %v outside [d, 1.25d] for exact %v", v, d, ref[v])
		}
	}

	split := graph.MustFromEdges(4, []graph.Edge{graph.E(0, 1, 1), graph.E(2, 3, 1)})
	if err := r.Add("split", GraphSource(split, WithEpsilon(0.25), WithPathReporting())); err != nil {
		t.Fatal(err)
	}
	waitReady(t, r, "split")
	if code := getJSON(t, srv.URL+"/graphs/split/dist?source=0&target=3", &scalar); code != http.StatusOK || scalar.Dist != nil {
		t.Fatalf("unreachable dist: status %d, payload %+v", code, scalar)
	}
	var pr struct {
		Path   []int32  `json:"path"`
		Length *float64 `json:"length"`
	}
	if code := getJSON(t, srv.URL+"/graphs/split/path?from=0&to=3", &pr); code != http.StatusOK || pr.Path != nil || pr.Length != nil {
		t.Fatalf("unreachable path: status %d, payload %+v", code, pr)
	}
}

// TestServerPathAndStats: a served path walks real graph edges and its
// length is their weight sum; the per-graph stats carry the graph shape
// and the relaxation engine's scanned-arc accounting.
func TestServerPathAndStats(t *testing.T) {
	r, srv := newRegistryServer(t)
	g := registryGraph(150, 3)
	var pr struct {
		Path   []int32  `json:"path"`
		Length *float64 `json:"length"`
	}
	dest := int32(g.N - 1)
	if code := getJSON(t, srv.URL+"/graphs/road/path?from=0&to=149", &pr); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if pr.Length == nil || len(pr.Path) == 0 {
		t.Fatal("expected a concrete path")
	}
	if pr.Path[0] != 0 || pr.Path[len(pr.Path)-1] != dest {
		t.Errorf("path endpoints %v", pr.Path)
	}
	var total float64
	for i := 1; i < len(pr.Path); i++ {
		w, ok := g.HasEdge(pr.Path[i-1], pr.Path[i])
		if !ok {
			t.Fatalf("served path uses non-edge (%d,%d)", pr.Path[i-1], pr.Path[i])
		}
		total += w
	}
	if math.Abs(total-*pr.Length) > 1e-6 {
		t.Errorf("path weighs %v, served length %v", total, *pr.Length)
	}

	var st struct {
		Graph  GraphInfo `json:"graph"`
		Engine Stats     `json:"engine"`
	}
	if code := getJSON(t, srv.URL+"/graphs/road/stats", &st); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	h, err := r.Acquire("road")
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	if st.Graph.N != g.N || st.Graph.HopsetEdges != h.Engine().(*Engine).Hopset().Size() {
		t.Errorf("stats graph %+v", st.Graph)
	}
	if st.Engine.PathQueries < 1 || st.Engine.TreeQueries < 1 {
		t.Errorf("stats engine %+v", st.Engine)
	}
	// The tree query above ran at least one exploration.
	rx := st.Engine.Relax
	if rx.Explorations < 1 || rx.ScannedArcs <= 0 || rx.ArcsPerExploration <= 0 {
		t.Errorf("stats relax %+v", rx)
	}
	if rx.DenseRounds+rx.SparseRounds <= 0 {
		t.Errorf("stats relax rounds %+v", rx)
	}
}

// TestServerErrors: malformed and out-of-range vertices are 400s with an
// error body.
func TestServerErrors(t *testing.T) {
	_, srv := newRegistryServer(t)
	for _, url := range []string{
		"/graphs/road/dist?source=abc",
		"/graphs/road/dist?source=100000",
		"/graphs/road/dist?source=0&target=x",
		"/graphs/road/dist?source=0&target=150",
		"/graphs/road/path?from=0",
		"/graphs/road/path?from=0&to=-5",
	} {
		var body map[string]any
		if code := getJSON(t, srv.URL+url, &body); code != http.StatusBadRequest {
			t.Errorf("GET %s: status %d, want 400 (%v)", url, code, body)
		}
		if _, ok := body["error"]; !ok {
			t.Errorf("GET %s: no error field in %v", url, body)
		}
	}
	var hz map[string]any
	if code := getJSON(t, srv.URL+"/healthz", &hz); code != http.StatusOK || hz["status"] != "ok" {
		t.Errorf("healthz: status %d, body %v", code, hz)
	}
}

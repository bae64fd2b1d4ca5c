package main

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/graphio"
	"repro/internal/graph"
	"repro/oracle"
)

// TestServeGraphDirEndToEnd wires the -graph-dir path of main(): a
// directory holding one DIMACS .gr file and one .csrg container becomes
// two named graphs, each answering /graphs/{name}/dist with exactly the
// answers an engine built directly from the same graph gives, and
// /healthz reports the registry aggregate status.
func TestServeGraphDirEndToEnd(t *testing.T) {
	dir := t.TempDir()
	gRoad := graph.Grid(12, 12, graph.UniformWeights(1, 4), 3)
	gWeb := graph.Gnm(200, 700, graph.UniformWeights(1, 8), 5)
	if err := graphio.EncodeFile(filepath.Join(dir, "road.gr"), gRoad); err != nil {
		t.Fatal(err)
	}
	if err := graphio.EncodeFile(filepath.Join(dir, "web.csrg"), gWeb); err != nil {
		t.Fatal(err)
	}
	// A different graph under the same base name: the .csrg container must
	// shadow it (the convert-once workflow leaves both files around).
	gDecoy := graph.Path(50, graph.UnitWeights(), 1)
	if err := graphio.EncodeFile(filepath.Join(dir, "web.el"), gDecoy); err != nil {
		t.Fatal(err)
	}
	// Clutter that must be skipped.
	os.WriteFile(filepath.Join(dir, "README.md"), []byte("not a graph"), 0o644)

	reg := oracle.NewRegistry(oracle.RegistryConfig{})
	defer reg.Close()
	names, err := addGraphDir(reg, dir, 0.25, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != "road" || names[1] != "web" {
		t.Fatalf("names = %v", names)
	}

	srv := httptest.NewServer(testMux(reg))
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for _, name := range names {
		if err := reg.WaitReady(ctx, name); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}

	for _, c := range []struct {
		name string
		g    *graph.Graph
	}{{"road", gRoad}, {"web", gWeb}} {
		want, err := oracle.New(c.g, buildOpts(0.25, false)...)
		if err != nil {
			t.Fatal(err)
		}
		wantDist, err := want.Dist(0)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Get(srv.URL + "/graphs/" + c.name + "/dist?source=0")
		if err != nil {
			t.Fatal(err)
		}
		var out struct {
			Graph string     `json:"graph"`
			Dist  []*float64 `json:"dist"`
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", c.name, resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if out.Graph != c.name || len(out.Dist) != c.g.N {
			t.Fatalf("%s: graph %q, %d dists", c.name, out.Graph, len(out.Dist))
		}
		for v, d := range out.Dist {
			if d == nil || *d != wantDist[v] {
				t.Fatalf("%s: dist[%d] = %v, want %v (file-served answers must match direct build)",
					c.name, v, d, wantDist[v])
			}
		}
	}

	// /healthz: aggregate status, ok once graphs serve.
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	var hz struct {
		Status   string               `json:"status"`
		Registry oracle.RegistryStats `json:"registry"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	if hz.Status != "ok" || hz.Registry.Ready != 2 {
		t.Fatalf("healthz = %+v", hz)
	}
}

// TestHealthzStarting: /healthz holds 503/"starting" until a graph is
// ready, then flips to 200/"ok".
func TestHealthzStarting(t *testing.T) {
	reg := oracle.NewRegistry(oracle.RegistryConfig{})
	defer reg.Close()
	release := make(chan struct{})
	err := reg.Add("slow", func(ctx context.Context, opts ...oracle.Option) (oracle.Backend, error) {
		<-release
		return oracle.NewFromEdges(2, []oracle.Edge{{U: 0, V: 1, W: 1}}, opts...)
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(testMux(reg))
	defer srv.Close()

	get := func() (int, string) {
		resp, err := http.Get(srv.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var hz struct {
			Status string `json:"status"`
		}
		json.NewDecoder(resp.Body).Decode(&hz)
		return resp.StatusCode, hz.Status
	}
	if code, status := get(); code != http.StatusServiceUnavailable || status != "starting" {
		t.Fatalf("before ready: %d %q", code, status)
	}
	close(release)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := reg.WaitReady(ctx, "slow"); err != nil {
		t.Fatal(err)
	}
	if code, status := get(); code != http.StatusOK || status != "ok" {
		t.Fatalf("after ready: %d %q", code, status)
	}
}

// TestRunServerGracefulShutdown: canceling the signal context stops the
// listener, drains the in-flight request to completion, and closes the
// registry.
func TestRunServerGracefulShutdown(t *testing.T) {
	reg := oracle.NewRegistry(oracle.RegistryConfig{})
	inFlight := make(chan struct{})
	mux := http.NewServeMux()
	mux.HandleFunc("/slow", func(w http.ResponseWriter, r *http.Request) {
		close(inFlight)
		time.Sleep(250 * time.Millisecond)
		w.Write([]byte("done"))
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	srvErr := make(chan error, 1)
	go func() {
		srvErr <- runServer(ctx, &http.Server{Handler: mux}, ln, reg, 5*time.Second)
	}()

	reqDone := make(chan int, 1)
	go func() {
		resp, err := http.Get("http://" + ln.Addr().String() + "/slow")
		if err != nil {
			reqDone <- -1
			return
		}
		resp.Body.Close()
		reqDone <- resp.StatusCode
	}()
	<-inFlight
	cancel() // the "signal"

	select {
	case code := <-reqDone:
		if code != http.StatusOK {
			t.Fatalf("in-flight request got %d, want 200 (it must drain, not be cut)", code)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("in-flight request never finished")
	}
	select {
	case err := <-srvErr:
		if err != nil {
			t.Fatalf("runServer: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("runServer never returned")
	}
	if _, err := http.Get("http://" + ln.Addr().String() + "/healthz"); err == nil {
		t.Fatal("listener still accepting after shutdown")
	}
}

func TestGraphName(t *testing.T) {
	cases := map[string]string{
		"road.gr":          "road",
		"web.csrg":         "web",
		"snap.el.gz":       "snap",
		"USA-road-d.NY.gr": "USA-road-d.NY",
	}
	for in, want := range cases {
		if got := graphName(in); got != want {
			t.Errorf("graphName(%q) = %q, want %q", in, got, want)
		}
	}
}

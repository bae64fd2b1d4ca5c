package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/oracle"
)

// testMux mounts newMux the way main() does, minus admission and audit.
func testMux(reg *oracle.Registry) http.Handler {
	return newMux(reg, nil, obs.NewRegistry(), obs.NewTracer("serve", obs.TracerOptions{}), obs.NewSLO(obs.DefaultObjective(), nil), nil, nil)
}

// TestServeDistEndToEnd wires the same pipeline as main() — generate a
// graph, register it as "default", mount the routes — and answers a
// /graphs/default/dist request over real HTTP.
func TestServeDistEndToEnd(t *testing.T) {
	g := graph.Gnm(256, 1024, graph.UniformWeights(1, 8), 1)
	reg := oracle.NewRegistry(oracle.RegistryConfig{EngineOptions: []oracle.Option{oracle.WithDistCache(64)}})
	defer reg.Close()
	if err := reg.Add("default", oracle.GraphSource(g, buildOpts(0.25, true)...)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := reg.WaitReady(ctx, "default"); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(testMux(reg))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/graphs/default/dist?source=0&target=255")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var out struct {
		Graph  string   `json:"graph"`
		Source int32    `json:"source"`
		Target int32    `json:"target"`
		Dist   *float64 `json:"dist"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Graph != "default" || out.Source != 0 || out.Target != 255 {
		t.Errorf("echoed %q %d→%d", out.Graph, out.Source, out.Target)
	}
	if out.Dist == nil || *out.Dist <= 0 {
		t.Errorf("dist = %v, want a positive finite distance", out.Dist)
	}
}

// TestServeSnapshotDirMultiGraph wires the -snapshot-dir path of main():
// two named snapshots load onto the registry in the background, each graph
// reports its own readiness, and the default graph answers by name.
func TestServeSnapshotDirMultiGraph(t *testing.T) {
	dir := t.TempDir()
	for _, c := range []struct {
		name string
		seed int64
	}{{"default", 4}, {"metro", 9}} {
		g := graph.Gnm(120, 480, graph.UniformWeights(1, 8), c.seed)
		eng, err := oracle.New(g, buildOpts(0.25, false)...)
		if err != nil {
			t.Fatal(err)
		}
		f, err := os.Create(filepath.Join(dir, c.name+".snap"))
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.SaveSnapshot(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}

	reg := oracle.NewRegistry(oracle.RegistryConfig{})
	defer reg.Close()
	names, err := addSnapshotDir(reg, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 {
		t.Fatalf("loaded %v", names)
	}
	for _, name := range names {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		if err := reg.WaitReady(ctx, name); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cancel()
	}

	srv := httptest.NewServer(testMux(reg))
	defer srv.Close()

	for _, name := range names {
		resp, err := http.Get(srv.URL + "/graphs/" + name + "/ready")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s readiness: %d", name, resp.StatusCode)
		}
	}

	resp, err := http.Get(srv.URL + "/graphs/default/dist?source=0&target=119")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("default /dist: %d", resp.StatusCode)
	}
	var out struct {
		Graph string   `json:"graph"`
		Dist  *float64 `json:"dist"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Graph != "default" || out.Dist == nil || *out.Dist <= 0 {
		t.Fatalf("default payload: %+v", out)
	}
}

// TestServeSnapshotRestart exercises the -save-snapshot → -snapshot
// restart path: the revived engine answers identically over HTTP.
func TestServeSnapshotRestart(t *testing.T) {
	g := graph.Gnm(200, 800, graph.UniformWeights(1, 8), 2)
	eng, err := oracle.New(g, buildOpts(0.25, false)...)
	if err != nil {
		t.Fatal(err)
	}
	snap := filepath.Join(t.TempDir(), "oracle.snap")
	f, err := os.Create(snap)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.SaveSnapshot(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	rf, err := os.Open(snap)
	if err != nil {
		t.Fatal(err)
	}
	revived, err := oracle.LoadSnapshot(rf)
	rf.Close()
	if err != nil {
		t.Fatal(err)
	}
	want, err := eng.DistTo(0, 199)
	if err != nil {
		t.Fatal(err)
	}
	got, err := revived.DistTo(0, 199)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("revived DistTo = %v, want %v", got, want)
	}
}

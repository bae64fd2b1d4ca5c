package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/graphio"
	"repro/internal/partition"
	"repro/internal/testkit"
	"repro/oracle"
	"repro/shard"
)

// TestServeShardedGraphDir wires the sharded half of -graph-dir: a
// manifest written by graphconv -partition is registered as one graph,
// reports its shard count through /graphs/{name}, and answers
// /graphs/{name}/dist byte-identically to a shard.Open oracle over the
// same container set. A same-name .csrg decoy must be shadowed by the
// manifest.
func TestServeShardedGraphDir(t *testing.T) {
	dir := t.TempDir()
	g := testkit.Grid(196, 4)
	res := partition.Partition(g, 3)
	manPath, err := graphio.WriteShards(dir, "grid", res)
	if err != nil {
		t.Fatal(err)
	}
	// Decoy under the same logical name: the manifest must win.
	if err := graphio.EncodeFile(dir+"/grid.csrg", testkit.Path(30)); err != nil {
		t.Fatal(err)
	}

	reg := oracle.NewRegistry(oracle.RegistryConfig{})
	defer reg.Close()
	names, err := addGraphDir(reg, dir, 0.25, true, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The logical graph registers once, from the manifest; the per-shard
	// containers must not appear as standalone graphs.
	if len(names) != 1 || names[0] != "grid" {
		t.Fatalf("names = %v, want exactly [grid]", names)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := reg.WaitReady(ctx, "grid"); err != nil {
		t.Fatal(err)
	}

	want, err := shard.Open(context.Background(), manPath,
		shard.Config{EpsilonLocal: 0.25, PathReporting: true})
	if err != nil {
		t.Fatal(err)
	}
	wantDist, err := want.Dist(0)
	if err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(testMux(reg))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/graphs/grid/dist?source=0")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("dist status %d", resp.StatusCode)
	}
	var out struct {
		Dist []*float64 `json:"dist"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Dist) != g.N {
		t.Fatalf("%d dists, want %d (manifest must shadow the decoy .csrg)", len(out.Dist), g.N)
	}
	for v, d := range out.Dist {
		if d == nil || *d != wantDist[v] {
			t.Fatalf("dist[%d] = %v, want %v", v, d, wantDist[v])
		}
	}

	gi, err := reg.Info("grid")
	if err != nil {
		t.Fatal(err)
	}
	if gi.Shards != 3 {
		t.Fatalf("Info.Shards = %d, want 3", gi.Shards)
	}

	// The many-to-many endpoint works on the sharded backend (K=3) and
	// every entry equals the corresponding per-pair answer.
	sources := []int32{0, 97, 195}
	targets := []int32{195, 0, 98}
	body, _ := json.Marshal(map[string]any{"sources": sources, "targets": targets})
	mresp, err := http.Post(srv.URL+"/graphs/grid/matrix", "application/json",
		bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("matrix status %d", mresp.StatusCode)
	}
	var mout struct {
		Matrix [][]*float64 `json:"matrix"`
	}
	if err := json.NewDecoder(mresp.Body).Decode(&mout); err != nil {
		t.Fatal(err)
	}
	if len(mout.Matrix) != len(sources) {
		t.Fatalf("matrix has %d rows, want %d", len(mout.Matrix), len(sources))
	}
	for i, s := range sources {
		for j, tv := range targets {
			wd, err := want.DistTo(s, tv)
			if err != nil {
				t.Fatal(err)
			}
			got := mout.Matrix[i][j]
			if got == nil || *got != wd {
				t.Fatalf("sharded matrix[%d][%d] (s=%d t=%d) = %v, want %v", i, j, s, tv, got, wd)
			}
		}
	}
}

package main

import (
	"context"
	"path/filepath"
	"testing"
	"time"
)

// TestSmoke runs every workload at toy size with 2-second windows, traced,
// against a freshly built cmd/serve, and checks that every metric
// BENCHMARK.json declares is emitted with its unit and that nothing failed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns cmd/serve processes")
	}
	const root = "../.."
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	work := t.TempDir()
	serve, err := buildServe(root, work)
	if err != nil {
		t.Fatal(err)
	}
	c := runConfig{seed: 1, seconds: 2 * time.Second, trace: true, work: work, serve: serve, spans: filepath.Join(work, "smoke")}
	for _, w := range workloads {
		toy := *w
		toy.n = 256
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			rep, err := runWorkload(context.Background(), c, &toy)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range spec.EndToEnd {
				if got, ok := rep.EndToEnd[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("end-to-end metric %s: got %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
				}
			}
			for _, m := range spec.PerLayer {
				if got, ok := rep.Layers[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("per-layer metric %s: got %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
				}
			}
			if ff := rep.Layers["fail_frac"].Value; ff != 0 || rep.Failed != 0 {
				t.Errorf("fail_frac %g, %d failed requests", ff, rep.Failed)
			}
			for _, v := range rep.Violations {
				t.Errorf("violation: %s", v)
			}
		})
	}
}

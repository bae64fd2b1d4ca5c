package oracle

import (
	"context"
	"testing"

	"repro/internal/obs"
)

// Allocation gates for the warm (cache-hit) query path. These are the
// serve-path budgets DESIGN.md documents: a steady-state point query must
// not touch the garbage collector at all, and the multi-query surfaces
// may allocate only their result containers. The gates are ceilings (≤),
// pinned slightly above the measured values so an accidental map, closure
// capture, or interface boxing on the hot path fails loudly in CI while
// runtime-version noise does not.
func TestWarmQueryAllocs(t *testing.T) {
	g := testGraph(t, 300)
	eng, err := New(g, WithEpsilon(0.25), WithDistCache(16), WithPathReporting())
	if err != nil {
		t.Fatal(err)
	}
	sources := []int32{0, 5, 17, 42}

	// Warm every cache the gated calls will hit.
	for _, s := range sources {
		if _, err := eng.Dist(s); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Tree(s); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := eng.MultiSource(sources); err != nil {
		t.Fatal(err)
	}

	gate := func(name string, limit float64, fn func()) {
		t.Helper()
		if a := testing.AllocsPerRun(200, fn); a > limit {
			t.Errorf("%s allocates %.1f/op on the warm path, budget %.0f", name, a, limit)
		}
	}

	// Cache-hit Dist returns the shared cached row: zero allocations,
	// gated at ≤2 for headroom across runtime versions.
	gate("Dist(warm)", 2, func() {
		if _, err := eng.Dist(sources[0]); err != nil {
			t.Fatal(err)
		}
	})
	gate("DistTo(warm)", 2, func() {
		if _, err := eng.DistTo(sources[0], 123); err != nil {
			t.Fatal(err)
		}
	})
	// All-hit MultiSource allocates exactly the out slice (missIdx is
	// lazy): 1 measured, gated at ≤2.
	gate("MultiSource(warm)", 2, func() {
		if _, err := eng.MultiSource(sources); err != nil {
			t.Fatal(err)
		}
	})
	// Cache-hit Path: the tree is shared, PathTo builds the exact-size
	// path slice in one allocation (two-pass depth measurement).
	gate("Path(warm)", 2, func() {
		if _, _, err := eng.Path(sources[0], 123); err != nil {
			t.Fatal(err)
		}
	})

	// The observability hot path rides the same budgets: a recorded span
	// (start → attrs → seqlock ring write) plus a metrics counter bump
	// around a warm Dist must add zero allocations — spans are
	// caller-stack values, the ring slot is preallocated, and counters
	// are plain atomics.
	tr := obs.NewTracer("test", obs.TracerOptions{})
	var hits obs.Counter
	gate("Dist(warm, traced)", 2, func() {
		var sp obs.Span
		tr.StartRoot(&sp, "GET dist", obs.Traceparent{})
		sp.Route = "dist"
		sp.Source = int64(sources[0])
		if _, err := eng.Dist(sources[0]); err != nil {
			t.Fatal(err)
		}
		hits.Inc()
		sp.Status = 200
		sp.End()
	})
	// The inert-span path (no tracer in ctx) is what untraced requests
	// pay: nothing.
	gate("Dist(warm, untraced ctx)", 2, func() {
		var sp obs.Span
		if obs.StartChild(&sp, context.Background(), "never") {
			t.Fatal("child span started without a parent in ctx")
		}
		if _, err := eng.Dist(sources[0]); err != nil {
			t.Fatal(err)
		}
		sp.End()
	})
	// DistSWR fresh hits with a live span in ctx: the annotation
	// writes into the caller-stack span, so the SWR fast path keeps its
	// zero-allocation budget. ContextWith on a recorded span allocates
	// the context node once per request (budgeted: ≤2 was already the
	// Dist gate, the context adds 1 measured).
	r := NewRegistry(RegistryConfig{HotPairCache: 64})
	defer r.Close()
	if err := r.Add("g", func(ctx context.Context, opts ...Option) (Backend, error) {
		return New(g, append([]Option{WithEpsilon(0.25)}, opts...)...)
	}); err != nil {
		t.Fatal(err)
	}
	if err := r.WaitReady(context.Background(), "g"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.DistSWR(context.Background(), "g", sources[0]); err != nil {
		t.Fatal(err)
	}
	gate("DistSWR(fresh, traced)", 3, func() {
		var sp obs.Span
		tr.StartRoot(&sp, "GET dist", obs.Traceparent{})
		ctx := obs.ContextWith(context.Background(), &sp)
		res, err := r.DistSWR(ctx, "g", sources[0])
		if err != nil {
			t.Fatal(err)
		}
		if res.Stale {
			t.Fatal("fresh hit reported stale")
		}
		sp.End()
	})
}

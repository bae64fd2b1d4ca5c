package audit_test

import (
	"context"
	"io"
	"log/slog"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/oracle"
	"repro/oracle/audit"
)

func testGraph(n int, seed int64) *graph.Graph {
	return graph.Gnm(n, 3*n, graph.UniformWeights(1, 6), seed)
}

func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// settle waits until every accepted sample has been audited or dropped.
func settle(t *testing.T, a *audit.Auditor) audit.Stats {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		st := a.Stats()
		if st.Audited+st.Dropped+st.Unsupported+st.Errors >= st.Sampled && st.Pending == 0 {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("audits did not settle: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// A correct engine at 100% sampling yields zero violations and a stretch
// histogram bounded by the advertised (1+eps).
func TestAuditCleanEngine(t *testing.T) {
	a := audit.New(audit.Config{SampleRate: 1, Logger: quietLogger()})
	defer a.Close()
	r := oracle.NewRegistry(oracle.RegistryConfig{Audit: a})
	defer r.Close()

	const eps = 0.25
	if err := r.Add("g", oracle.GraphSource(testGraph(160, 7), oracle.WithEpsilon(eps), oracle.WithPathReporting())); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := r.WaitReady(ctx, "g"); err != nil {
		t.Fatal(err)
	}

	for s := int32(0); s < 40; s++ {
		if _, err := r.Dist("g", s); err != nil {
			t.Fatal(err)
		}
		if _, _, err := r.Path("g", s, (s+37)%160); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.Matrix("g", []int32{1, 2, 3}, []int32{4, 5, 6}); err != nil {
		t.Fatal(err)
	}

	st := settle(t, a)
	if st.Sampled == 0 || st.Audited == 0 {
		t.Fatalf("nothing audited: %+v", st)
	}
	if st.Violations != 0 {
		t.Fatalf("clean engine produced violations: %+v", st.ByKind)
	}
	if len(st.Stretch) == 0 {
		t.Fatalf("no stretch observations: %+v", st)
	}
	for _, s := range st.Stretch {
		if s.Max > 1+eps+1e-6 || s.P99 < 1-1e-6 {
			t.Fatalf("stretch out of bounds: %+v", s)
		}
	}
	if st.ExactCacheMisses == 0 {
		t.Fatalf("exact cache never filled: %+v", st)
	}
}

// corruptBackend wraps a real engine and falsifies its answers in
// configurable ways — the auditor must catch every mode.
type corruptBackend struct {
	*oracle.Engine
	distScale float64 // scales every finite distance (0 = honest)
	pathMode  string  // "", "shortcut", "length", "unreach"
}

func (c *corruptBackend) Dist(source int32) ([]float64, error) {
	d, err := c.Engine.Dist(source)
	if err != nil || c.distScale == 0 {
		return d, err
	}
	out := make([]float64, len(d))
	for i, x := range d {
		if math.IsInf(x, 1) {
			out[i] = x
			continue
		}
		out[i] = x * c.distScale
	}
	return out, nil
}

func (c *corruptBackend) Path(u, v int32) ([]int32, float64, error) {
	p, l, err := c.Engine.Path(u, v)
	if err != nil {
		return p, l, err
	}
	switch c.pathMode {
	case "shortcut": // claim a direct hop that is not a graph edge
		if len(p) > 2 {
			return []int32{u, v}, l, nil
		}
	case "length": // valid walk, lied-about length
		return p, l + 1, nil
	case "unreach":
		return nil, math.Inf(1), nil
	}
	return p, l, err
}

func newCorrupt(t *testing.T, g *graph.Graph) *corruptBackend {
	t.Helper()
	eng, err := oracle.New(g, oracle.WithEpsilon(0.25), oracle.WithPathReporting())
	if err != nil {
		t.Fatal(err)
	}
	return &corruptBackend{Engine: eng}
}

// syncBuffer is a mutex-guarded log sink: audit workers write violation
// events from their own goroutines.
type syncBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func auditOne(t *testing.T, be oracle.Backend, run func(r *oracle.Registry)) audit.Stats {
	t.Helper()
	var buf syncBuffer
	a := audit.New(audit.Config{
		SampleRate: 1,
		Logger:     slog.New(slog.NewJSONHandler(&buf, nil)),
	})
	defer a.Close()
	r := oracle.NewRegistry(oracle.RegistryConfig{Audit: a})
	defer r.Close()
	if err := r.AddReady("g", be); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := r.WaitReady(ctx, "g"); err != nil {
		t.Fatal(err)
	}
	run(r)
	st := settle(t, a)
	if st.Violations > 0 && !strings.Contains(buf.String(), "audit_violation") {
		t.Fatalf("violation not logged as structured event: %q", buf.String())
	}
	return st
}

func TestAuditCatchesStretchViolation(t *testing.T) {
	g := testGraph(120, 3)
	be := newCorrupt(t, g)
	be.distScale = 10 // way past (1+eps)
	st := auditOne(t, be, func(r *oracle.Registry) {
		for s := int32(0); s < 20; s++ {
			if _, err := r.Dist("g", s); err != nil {
				t.Fatal(err)
			}
		}
	})
	if !hasKind(st, audit.ViolationStretch) {
		t.Fatalf("inflated distances not flagged: %+v", st)
	}
}

func TestAuditCatchesUndershoot(t *testing.T) {
	g := testGraph(120, 4)
	be := newCorrupt(t, g)
	be.distScale = 0.5 // impossible: better than exact
	st := auditOne(t, be, func(r *oracle.Registry) {
		for s := int32(0); s < 20; s++ {
			if _, err := r.Dist("g", s); err != nil {
				t.Fatal(err)
			}
		}
	})
	if !hasKind(st, audit.ViolationStretch) {
		t.Fatalf("undershooting distances not flagged: %+v", st)
	}
}

func TestAuditCatchesPathViolations(t *testing.T) {
	g := testGraph(120, 5)
	for mode, kind := range map[string]string{
		"shortcut": audit.ViolationPathInvalid,
		"length":   audit.ViolationPathLength,
		"unreach":  audit.ViolationReachability,
	} {
		be := newCorrupt(t, g)
		be.pathMode = mode
		st := auditOne(t, be, func(r *oracle.Registry) {
			for s := int32(0); s < 30; s++ {
				if _, _, err := r.Path("g", s, (s+53)%120); err != nil {
					t.Fatal(err)
				}
			}
		})
		if !hasKind(st, kind) {
			t.Fatalf("mode %q: want %q violation, got %+v", mode, kind, st.ByKind)
		}
	}
}

func hasKind(st audit.Stats, kind string) bool {
	for _, v := range st.ByKind {
		if v.Kind == kind && v.Count > 0 {
			return true
		}
	}
	return false
}

// blockingBackend is an engine whose audit graph stays unavailable until
// the test releases it, so the audit workers stall and the ring fills.
type blockingBackend struct {
	*oracle.Engine
	release chan struct{}
}

func (b *blockingBackend) AuditGraph() (*graph.Graph, error) {
	<-b.release
	return b.Engine.AuditGraph()
}

// TestAuditFullRingNeverBlocksServing: with every audit worker stalled
// and the ring full, sampled queries keep returning and the overflow is
// counted as dropped — serving never waits on audit throughput.
func TestAuditFullRingNeverBlocksServing(t *testing.T) {
	const ringSize, queries = 4, 64
	a := audit.New(audit.Config{SampleRate: 1, Workers: 1, RingSize: ringSize, Logger: quietLogger()})
	defer a.Close()
	r := oracle.NewRegistry(oracle.RegistryConfig{Audit: a})
	defer r.Close()
	eng, err := oracle.New(testGraph(100, 13), oracle.WithEpsilon(0.25))
	if err != nil {
		t.Fatal(err)
	}
	be := &blockingBackend{Engine: eng, release: make(chan struct{})}
	var once sync.Once
	release := func() { once.Do(func() { close(be.release) }) }
	defer release() // before the Close calls, which wait for in-flight audits
	if err := r.AddReady("g", be); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := r.WaitReady(ctx, "g"); err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() {
		for s := int32(0); s < queries; s++ {
			if _, err := r.Dist("g", s); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("sampled queries blocked behind stalled audit workers")
	}
	// One sample may sit with the stalled worker; the ring holds ringSize.
	st := a.Stats()
	if st.Sampled+st.Dropped != queries || st.Sampled > ringSize+1 {
		t.Fatalf("stalled auditor stats %+v: want at most %d sampled and the rest of %d dropped",
			st, ringSize+1, queries)
	}
	release()
	if st := settle(t, a); st.Audited != st.Sampled || st.Violations != 0 {
		t.Fatalf("after release: %+v, want every accepted sample audited clean", st)
	}
}

func TestShouldSampleRates(t *testing.T) {
	off := audit.New(audit.Config{SampleRate: 0, Logger: quietLogger()})
	defer off.Close()
	for i := 0; i < 1000; i++ {
		if off.ShouldSample() {
			t.Fatal("rate 0 sampled")
		}
	}
	on := audit.New(audit.Config{SampleRate: 1, Logger: quietLogger()})
	defer on.Close()
	for i := 0; i < 1000; i++ {
		if !on.ShouldSample() {
			t.Fatal("rate 1 skipped")
		}
	}
	half := audit.New(audit.Config{SampleRate: 0.5, Logger: quietLogger()})
	defer half.Close()
	n := 0
	for i := 0; i < 20000; i++ {
		if half.ShouldSample() {
			n++
		}
	}
	if n < 9000 || n > 11000 {
		t.Fatalf("rate 0.5 sampled %d/20000", n)
	}
}

// Registry.Close drains the auditor: every accepted sample is either
// audited or dropped with its lease released, and the engine's handles
// fully drain afterwards.
func TestRegistryCloseDrainsAudits(t *testing.T) {
	a := audit.New(audit.Config{SampleRate: 1, Workers: 1, Logger: quietLogger()})
	defer a.Close()
	r := oracle.NewRegistry(oracle.RegistryConfig{Audit: a})
	if err := r.Add("g", oracle.GraphSource(testGraph(200, 9), oracle.WithEpsilon(0.3))); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := r.WaitReady(ctx, "g"); err != nil {
		t.Fatal(err)
	}
	h, err := r.Acquire("g")
	if err != nil {
		t.Fatal(err)
	}
	for s := int32(0); s < 64; s++ {
		if _, err := r.Dist("g", s); err != nil {
			t.Fatal(err)
		}
	}
	r.Close()
	st := a.Stats()
	if st.Pending != 0 || st.Audited+st.Dropped+st.Unsupported+st.Errors != st.Sampled {
		t.Fatalf("close left audits in flight: %+v", st)
	}
	// Ours is the only lease left; releasing it must drain the handle.
	h.Release()
	select {
	case <-h.Drained():
	case <-time.After(5 * time.Second):
		t.Fatal("audit leases leaked: handle never drained")
	}
}

func TestAuditMetricsExposition(t *testing.T) {
	a := audit.New(audit.Config{SampleRate: 1, Logger: quietLogger()})
	defer a.Close()
	r := oracle.NewRegistry(oracle.RegistryConfig{Audit: a})
	defer r.Close()
	if err := r.Add("g", oracle.GraphSource(testGraph(100, 11), oracle.WithEpsilon(0.25))); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := r.WaitReady(ctx, "g"); err != nil {
		t.Fatal(err)
	}
	for s := int32(0); s < 10; s++ {
		if _, err := r.Dist("g", s); err != nil {
			t.Fatal(err)
		}
	}
	settle(t, a)

	reg := obs.NewRegistry()
	reg.Register(a.Collect)
	text := string(reg.Gather())
	for _, fam := range []string{
		"spo_audit_samples_total",
		"spo_audit_completed_total",
		"spo_audit_violations_total",
		"spo_audit_stretch_p99",
		"spo_audit_exact_cache_events_total",
	} {
		if !strings.Contains(text, fam) {
			t.Fatalf("metrics missing %s:\n%s", fam, text)
		}
	}
}

package admission

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// TestMiddleware drives the weighted admission gate end to end: with
// limit 1 and one query parked inside the handler, a second query gets
// 429 + Retry-After immediately, while status routes pass untouched;
// after the first query finishes, capacity frees up again.
func TestMiddleware(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	inner := http.NewServeMux()
	inner.HandleFunc("/graphs/g/dist", func(w http.ResponseWriter, r *http.Request) {
		once.Do(func() {
			close(entered)
			<-release
		})
		w.Write([]byte("ok"))
	})
	inner.HandleFunc("/graphs", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("listing"))
	})
	srv := httptest.NewServer(Middleware(inner, New(1)))
	defer srv.Close()

	firstDone := make(chan error, 1)
	go func() {
		resp, err := http.Get(srv.URL + "/graphs/g/dist?source=0")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("status %s", resp.Status)
			}
		}
		firstDone <- err
	}()
	<-entered

	// Saturated: the next query is refused with 429 + Retry-After.
	resp, err := http.Get(srv.URL + "/graphs/g/dist?source=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated query: %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	// Status routes are never limited.
	resp, err = http.Get(srv.URL + "/graphs")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("listing under saturation: %d", resp.StatusCode)
	}

	close(release)
	if err := <-firstDone; err != nil {
		t.Fatalf("parked query: %v", err)
	}
	// Capacity freed: queries flow again.
	resp, err = http.Get(srv.URL + "/graphs/g/dist?source=2")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("after release: %d", resp.StatusCode)
	}
}

// TestIsQueryRoute pins the limiter's route classification, including the
// graph-named-"dist" corner: status routes are never limited.
func TestIsQueryRoute(t *testing.T) {
	for p, want := range map[string]bool{
		"/dist":                false, // no single-graph routes
		"/path":                false,
		"/graphs/ny/dist":      true,
		"/graphs/ny/path":      true,
		"/graphs/ny/matrix":    true,
		"/graphs/ny/multi":     true,
		"/graphs/ny/nearest":   true,
		"/graphs/ny/tree":      true,
		"/graphs":              false,
		"/graphs/dist":         false, // a graph literally named "dist"
		"/graphs/path":         false,
		"/graphs/matrix":       false, // a graph literally named "matrix"
		"/graphs/ny/stats":     false,
		"/graphs/ny/ready":     false,
		"/healthz":             false,
		"/graphs/ny/dist/deep": false,
	} {
		if got := IsQueryRoute(p); got != want {
			t.Errorf("IsQueryRoute(%q) = %v, want %v", p, got, want)
		}
	}
}

// TestRequestCost pins the admission pricing: a point query is 1 unit, an
// S×T matrix is S·T units, a /multi of S sources is S units — and pricing
// must peek the body without consuming it (the handler still needs to
// decode it).
func TestRequestCost(t *testing.T) {
	if got := RequestCost(httptest.NewRequest("GET", "/graphs/g/dist?source=0", nil)); got != 1 {
		t.Fatalf("dist cost = %d, want 1", got)
	}
	body := `{"sources":[1,2,3],"targets":[4,5,6,7]}`
	req := httptest.NewRequest("POST", "/graphs/g/matrix", bytes.NewBufferString(body))
	if got := RequestCost(req); got != 12 {
		t.Fatalf("matrix cost = %d, want 12 (3×4)", got)
	}
	restored := new(bytes.Buffer)
	if _, err := restored.ReadFrom(req.Body); err != nil {
		t.Fatal(err)
	}
	if restored.String() != body {
		t.Fatalf("body not restored after pricing: %q", restored.String())
	}
	if got := RequestCost(httptest.NewRequest("POST", "/graphs/g/multi",
		bytesBody(`{"sources":[1,2,3]}`))); got != 3 {
		t.Fatalf("multi cost = %d, want 3", got)
	}
	// /nearest runs one joint exploration regardless of fan-in: 1 unit.
	if got := RequestCost(httptest.NewRequest("POST", "/graphs/g/nearest",
		bytesBody(`{"sources":[1,2,3]}`))); got != 1 {
		t.Fatalf("nearest cost = %d, want 1", got)
	}
	// Garbage bodies price at 1 — the handler rejects them with a 400.
	if got := RequestCost(httptest.NewRequest("POST", "/graphs/g/matrix", bytesBody("not json"))); got != 1 {
		t.Fatalf("garbage matrix cost = %d, want 1", got)
	}
	// Empty source/target lists never price at 0.
	if got := RequestCost(httptest.NewRequest("POST", "/graphs/g/matrix",
		bytesBody(`{"sources":[],"targets":[]}`))); got != 1 {
		t.Fatalf("empty matrix cost = %d, want 1", got)
	}
}

func bytesBody(s string) io.Reader { return bytes.NewBufferString(s) }

// TestRequestCostOversizedBody is the regression test for the body-peek
// cap bug: a /matrix body larger than MaxCostPeek used to fail the
// truncated JSON decode and fall through to unit cost — an arbitrarily
// large request priced like a scalar lookup. It must price at the
// conservative oversize cost instead, and the handler must still see the
// complete original body.
func TestRequestCostOversizedBody(t *testing.T) {
	// A syntactically valid body comfortably past the 1 MiB peek cap.
	var sb strings.Builder
	sb.WriteString(`{"sources":[0`)
	for sb.Len() < MaxCostPeek+4096 {
		sb.WriteString(",1,2,3,4,5,6,7,8,9")
	}
	sb.WriteString(`],"targets":[0]}`)
	body := sb.String()

	req := httptest.NewRequest("POST", "/graphs/g/matrix", bytesBody(body))
	got := RequestCost(req)
	if got != oversizeCost {
		t.Fatalf("oversized matrix cost = %d, want oversizeCost %d", got, oversizeCost)
	}
	// The peeked prefix must be spliced back: the handler reads the whole
	// original stream (so its MaxBytesReader sees the true size).
	restored, err := io.ReadAll(req.Body)
	if err != nil {
		t.Fatal(err)
	}
	if string(restored) != body {
		t.Fatalf("oversized body not restored: got %d bytes, want %d", len(restored), len(body))
	}

	// The limiter clamps the oversize price to its whole capacity: while
	// such a request is in flight nothing else is admitted, and it is
	// admitted at all only against an otherwise-empty gate.
	lim := New(64)
	if !lim.TryAcquire(oversizeCost) {
		t.Fatal("oversize request not admitted against an empty limiter")
	}
	if lim.TryAcquire(1) {
		t.Fatal("unit query admitted alongside an oversize body")
	}
	lim.Release(oversizeCost)
	if !lim.TryAcquire(1) {
		t.Fatal("capacity not restored after oversize release")
	}
	lim.Release(1)
}

package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/hist"
)

func TestWriterParserRoundTrip(t *testing.T) {
	w := NewMetricWriter()
	w.Counter("spo_queries_total", "Total queries.", 42, L("graph", "g1"), L("route", "dist"))
	w.Counter("spo_queries_total", "Total queries.", 7, L("graph", `we"ird\graph`+"\n"), L("route", "path"))
	w.Gauge("spo_memory_bytes", "Resident bytes.", 1.5e9)
	var h hist.Histogram
	for i := 0; i < 100; i++ {
		h.Observe(time.Duration(i+1) * time.Millisecond)
	}
	w.SummaryFromSnapshot("spo_latency_seconds", "Latency.", h.Snapshot(), L("route", "dist"))

	text := w.Render()
	fams, err := ParseExposition(strings.NewReader(string(text)))
	if err != nil {
		t.Fatalf("own output failed to parse: %v\n%s", err, text)
	}

	if v, ok := fams["spo_queries_total"].FindSample("spo_queries_total", L("graph", "g1")); !ok || v != 42 {
		t.Fatalf("queries{graph=g1} = %v/%v, want 42", v, ok)
	}
	if v, ok := fams["spo_queries_total"].FindSample("spo_queries_total", L("graph", `we"ird\graph`+"\n")); !ok || v != 7 {
		t.Fatalf("escaped label sample lost: %v/%v\n%s", v, ok, text)
	}
	if fams["spo_memory_bytes"].Type != "gauge" {
		t.Fatalf("memory type = %q, want gauge", fams["spo_memory_bytes"].Type)
	}
	sum := fams["spo_latency_seconds"]
	if sum.Type != "summary" {
		t.Fatalf("latency type = %q, want summary", sum.Type)
	}
	cnt, ok := sum.FindSample("spo_latency_seconds_count", L("route", "dist"))
	if !ok || cnt != 100 {
		t.Fatalf("summary count = %v/%v, want 100", cnt, ok)
	}
	p50, ok := sum.FindSample("spo_latency_seconds", L("quantile", "0.5"))
	if !ok || p50 < 0.045 || p50 > 0.07 {
		t.Fatalf("p50 = %v/%v, want ≈0.05s", p50, ok)
	}
}

func TestWriterGroupsFamilies(t *testing.T) {
	// Interleave two families' samples; the renderer must still emit
	// each family contiguously under one TYPE header (the parser is the
	// enforcement mechanism).
	w := NewMetricWriter()
	w.Counter("spo_a_total", "A.", 1, L("k", "1"))
	w.Counter("spo_b_total", "B.", 2)
	w.Counter("spo_a_total", "A.", 3, L("k", "2"))
	if _, err := ParseExposition(strings.NewReader(string(w.Render()))); err != nil {
		t.Fatalf("interleaved writes rendered non-contiguous families: %v", err)
	}
}

func TestParserRejectsMalformed(t *testing.T) {
	bad := []string{
		"spo_x 1\n",                                             // sample before TYPE
		"# TYPE spo_x bogus\nspo_x 1\n",                         // unknown type
		"# TYPE spo_x counter\nspo_x{a=b} 1\n",                  // unquoted label value
		"# TYPE spo_x counter\nspo_x notanum\n",                 // bad value
		"# TYPE spo_x counter\n9bad 1\n",                        // bad name
		"# TYPE spo_x counter\nspo_y 1\n",                       // sample outside family
		"# TYPE spo_x counter\nspo_x 1\n# TYPE spo_x counter\n", // dup TYPE
	}
	for _, s := range bad {
		if _, err := ParseExposition(strings.NewReader(s)); err == nil {
			t.Errorf("parser accepted malformed input %q", s)
		}
	}
}

func TestParserSpecials(t *testing.T) {
	in := "# TYPE spo_x gauge\nspo_x{k=\"+Inf\"} +Inf\nspo_x{k=\"nan\"} NaN\n"
	fams, err := ParseExposition(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := fams["spo_x"].FindSample("spo_x", L("k", "+Inf")); !math.IsInf(v, 1) {
		t.Fatalf("+Inf parsed as %v", v)
	}
	if v, _ := fams["spo_x"].FindSample("spo_x", L("k", "nan")); !math.IsNaN(v) {
		t.Fatalf("NaN parsed as %v", v)
	}
}

func TestRegistryHandler(t *testing.T) {
	reg := NewRegistry()
	var c Counter
	c.Add(9)
	reg.Register(func(w *MetricWriter) {
		w.Counter("spo_test_total", "Test counter.", float64(c.Load()))
	})
	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type = %q", ct)
	}
	fams, err := ParseExposition(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := fams["spo_test_total"].FindSample("spo_test_total"); !ok || v != 9 {
		t.Fatalf("spo_test_total = %v/%v, want 9", v, ok)
	}
	// The runtime collector rides along on every registry.
	for _, name := range []string{"spo_goroutines", "spo_heap_alloc_bytes", "spo_process_uptime_seconds"} {
		if fams[name] == nil {
			t.Fatalf("runtime family %s missing", name)
		}
	}

	post, err := http.Post(srv.URL+"/metrics", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	post.Body.Close()
	if post.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /metrics = %d, want 405", post.StatusCode)
	}
}

func TestMiddlewareTracesAndCounts(t *testing.T) {
	tr := NewTracer("serve", TracerOptions{RingSize: 32})
	m := NewHTTPMetrics()
	var sawSpan *Span
	h := Middleware(tr, m, nil, http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		sawSpan = FromContext(req.Context())
		w.WriteHeader(http.StatusOK)
		fmt.Fprint(w, "ok")
	}))
	srv := httptest.NewServer(h)
	defer srv.Close()

	parent := "00-0123456789abcdef0123456789abcdef-00000000000000aa-01"
	req, _ := http.NewRequest("GET", srv.URL+"/graphs/usa/dist?source=3", nil)
	req.Header.Set("traceparent", parent)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	if sawSpan == nil || !sawSpan.Active() {
		t.Fatal("handler saw no active span")
	}
	want := ParseTraceparent(parent)
	spans := tr.Collect(want.Trace)
	if len(spans) != 1 {
		t.Fatalf("got %d spans for inbound trace, want 1", len(spans))
	}
	s := spans[0]
	if s.ParentID != want.Span.String() {
		t.Fatalf("span parent = %q, want %q", s.ParentID, want.Span)
	}
	if s.Route != "dist" || s.Graph != "usa" || s.Status != 200 {
		t.Fatalf("span attrs = %+v", s)
	}

	// /healthz is counted but never traced.
	before := tr.Stats().Started
	hz, _ := http.Get(srv.URL + "/healthz")
	hz.Body.Close()
	if tr.Stats().Started != before {
		t.Fatal("healthz was traced")
	}

	w := NewMetricWriter()
	m.Collect(w)
	fams, err := ParseExposition(strings.NewReader(string(w.Render())))
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := fams["spo_http_requests_total"].FindSample("spo_http_requests_total",
		L("route", "dist"), L("class", "2xx")); !ok || v != 1 {
		t.Fatalf("dist 2xx count = %v/%v, want 1", v, ok)
	}
	if v, ok := fams["spo_http_requests_total"].FindSample("spo_http_requests_total",
		L("route", "healthz"), L("class", "2xx")); !ok || v != 1 {
		t.Fatalf("healthz 2xx count = %v/%v, want 1", v, ok)
	}
}

func TestRouteInfo(t *testing.T) {
	cases := []struct {
		path  string
		route string
		graph string
	}{
		{"/graphs/usa/dist", "dist", "usa"},
		{"/graphs/usa/path", "path", "usa"},
		{"/graphs/g1/matrix", "matrix", "g1"},
		{"/graphs/g1/multi", "multi", "g1"},
		{"/graphs/g1/nearest", "nearest", "g1"},
		{"/graphs/g1/tree", "tree", "g1"},
		{"/graphs/g1/stats", "stats", "g1"},
		{"/graphs/g1/reload", "reload", "g1"},
		{"/graphs/g1/ready", "ready", "g1"},
		{"/graphs/g1", "graphs", "g1"},
		{"/graphs", "graphs", ""},
		{"/stats", "stats", ""},
		{"/healthz", "healthz", ""},
		{"/metrics", "metrics", ""},
		{"/trace/0123", "trace", ""},
		{"/dist", "other", ""},
		{"/nope", "other", ""},
	}
	for _, c := range cases {
		r, g := RouteInfo(c.path)
		if RouteName(r) != c.route || g != c.graph {
			t.Errorf("RouteInfo(%q) = (%s, %q), want (%s, %q)", c.path, RouteName(r), g, c.route, c.graph)
		}
	}
}

func TestTraceHandlerMergesPeers(t *testing.T) {
	workerTr := NewTracer("shardserve", TracerOptions{RingSize: 32})
	routerTr := NewTracer("serve", TracerOptions{RingSize: 32})

	// One shared trace: a router root span with a worker child hung off
	// a remote hop (the worker only knows the traceparent).
	var root Span
	routerTr.StartRoot(&root, "GET dist", Traceparent{})
	var wsp Span
	workerTr.StartRoot(&wsp, "GET dist", ParseTraceparent(root.Traceparent()))
	wsp.End()
	root.End()

	worker := httptest.NewServer(http.StripPrefix("", TraceHandler(workerTr, nil, nil)))
	defer worker.Close()
	peers := func() []string { return []string{worker.URL} }
	router := httptest.NewServer(TraceHandler(routerTr, nil, peers))
	defer router.Close()

	resp, err := http.Get(router.URL + "/trace/" + root.Trace.String())
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body traceResponse
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if len(body.Spans) != 2 {
		t.Fatalf("merged %d spans, want 2 (router + worker)", len(body.Spans))
	}
	services := map[string]bool{}
	for _, s := range body.Spans {
		services[s.Service] = true
	}
	if !services["serve"] || !services["shardserve"] {
		t.Fatalf("merged services = %v", services)
	}
	if len(body.Tree) != 1 || len(body.Tree[0].Children) != 1 {
		t.Fatalf("tree did not link worker under router: %+v", body.Tree)
	}

	// Bad ids are rejected, unknown ids return an empty trace.
	bad, _ := http.Get(router.URL + "/trace/zzz")
	bad.Body.Close()
	if bad.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad id status = %d, want 400", bad.StatusCode)
	}
	unknown, err := http.Get(router.URL + "/trace/" + randTraceID().String())
	if err != nil {
		t.Fatal(err)
	}
	defer unknown.Body.Close()
	var empty traceResponse
	if err := json.NewDecoder(unknown.Body).Decode(&empty); err != nil {
		t.Fatal(err)
	}
	if len(empty.Spans) != 0 {
		t.Fatalf("unknown trace returned %d spans", len(empty.Spans))
	}
}

package obs

import (
	"encoding/hex"
	"encoding/json"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/hist"
)

// Route classes tracked by HTTPMetrics. Fixed and enumerated so the
// middleware's counter bump is an array index, not a map lookup.
const (
	routeDist = iota
	routePath
	routeMatrix
	routeMulti
	routeNearest
	routeTree
	routeStats
	routeGraphs
	routeHealthz
	routeReload
	routeReady
	routeMetrics
	routeTrace
	routeOther
	numRoutes
)

var routeNames = [numRoutes]string{
	"dist", "path", "matrix", "multi", "nearest", "tree",
	"stats", "graphs", "healthz", "reload", "ready", "metrics", "trace", "other",
}

// Status classes for the request counter.
const (
	class2xx = iota
	class3xx
	class4xx
	class429
	class5xx
	numClasses
)

var classNames = [numClasses]string{"2xx", "3xx", "4xx", "429", "5xx"}

func classOf(status int) int {
	switch {
	case status == 429:
		return class429
	case status >= 500:
		return class5xx
	case status >= 400:
		return class4xx
	case status >= 300:
		return class3xx
	default:
		return class2xx
	}
}

// RouteInfo classifies a request path into a route label and, for
// /graphs/{name}/... paths, the graph name.
func RouteInfo(path string) (route int, graph string) {
	switch path {
	case "/healthz":
		return routeHealthz, ""
	case "/stats":
		return routeStats, ""
	case "/metrics":
		return routeMetrics, ""
	case "/graphs", "/graphs/":
		return routeGraphs, ""
	}
	if strings.HasPrefix(path, "/trace/") {
		return routeTrace, ""
	}
	rest, ok := strings.CutPrefix(path, "/graphs/")
	if !ok {
		return routeOther, ""
	}
	name, verb, ok := strings.Cut(rest, "/")
	if !ok {
		return routeGraphs, rest
	}
	switch verb {
	case "dist":
		return routeDist, name
	case "path":
		return routePath, name
	case "matrix":
		return routeMatrix, name
	case "multi":
		return routeMulti, name
	case "nearest":
		return routeNearest, name
	case "tree":
		return routeTree, name
	case "stats":
		return routeStats, name
	case "reload":
		return routeReload, name
	case "ready":
		return routeReady, name
	}
	return routeOther, name
}

// RouteName returns the label for a RouteInfo result.
func RouteName(route int) string { return routeNames[route] }

// HTTPMetrics counts requests by route and status class and keeps a
// latency histogram per route. All hot-path operations are atomic
// increments on fixed arrays.
type HTTPMetrics struct {
	requests [numRoutes][numClasses]Counter
	lat      [numRoutes]hist.Histogram
}

// NewHTTPMetrics returns zeroed HTTP metrics.
func NewHTTPMetrics() *HTTPMetrics { return &HTTPMetrics{} }

// observe records one finished request.
func (m *HTTPMetrics) observe(route, status int, dur time.Duration) {
	if m == nil {
		return
	}
	m.requests[route][classOf(status)].Inc()
	m.lat[route].Observe(dur)
}

// Collect emits the HTTP families.
func (m *HTTPMetrics) Collect(w *MetricWriter) {
	if m == nil {
		return
	}
	for r := 0; r < numRoutes; r++ {
		for c := 0; c < numClasses; c++ {
			if v := m.requests[r][c].Load(); v > 0 {
				w.Counter("spo_http_requests_total", "HTTP requests by route and status class.",
					float64(v), L("route", routeNames[r]), L("class", classNames[c]))
			}
		}
	}
	// Always emit the family, even before traffic, so scrapers can
	// discover it: an all-zero sample for the dist route.
	if _, ok := w.families["spo_http_requests_total"]; !ok {
		w.Counter("spo_http_requests_total", "HTTP requests by route and status class.",
			0, L("route", "dist"), L("class", "2xx"))
	}
	for r := 0; r < numRoutes; r++ {
		snap := m.lat[r].Snapshot()
		if snap.Count == 0 {
			continue
		}
		w.SummaryFromSnapshot("spo_http_request_duration_seconds",
			"HTTP request latency by route.", snap, L("route", routeNames[r]))
	}
}

// statusWriter captures the response code for the span and counters.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (sw *statusWriter) WriteHeader(code int) {
	if sw.status == 0 {
		sw.status = code
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(b []byte) (int, error) {
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	return sw.ResponseWriter.Write(b)
}

// Flush forwards to the underlying writer when it supports flushing —
// the handler layer streams nothing today, but don't mask the ability.
func (sw *statusWriter) Flush() {
	if f, ok := sw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// queryRoute reports whether a route class is a graph query — the only
// traffic that consumes SLO budget (scrapes, probes, and admin calls are
// not user-visible serving).
func queryRoute(route int) bool { return route <= routeTree }

// Middleware wraps next with tracing, HTTP metrics, and SLO accounting.
// Every query-path request gets a root span (linked to an inbound
// traceparent header when present) carried in the request context;
// /metrics, /trace, /healthz and /debug are counted but never traced —
// probes and scrapes would otherwise drown the ring. slo may be nil;
// when set, finished query-route responses feed its latency, error, and
// stale-serve budgets (staleness read from the StaleHeader the serve
// layer sets on stale-while-revalidate hits).
func Middleware(tr *Tracer, m *HTTPMetrics, slo *SLO, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		route, graph := RouteInfo(req.URL.Path)
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w}

		finish := func() {
			dur := time.Since(start)
			m.observe(route, sw.status, dur)
			if queryRoute(route) {
				slo.ObserveRequest(graph, sw.status, dur,
					sw.Header().Get(StaleHeader) == "true")
			}
		}

		trace := tr != nil
		switch route {
		case routeMetrics, routeTrace, routeHealthz:
			trace = false
		}
		if !trace {
			next.ServeHTTP(sw, req)
			if sw.status == 0 {
				sw.status = http.StatusOK
			}
			finish()
			return
		}

		var sp Span
		tr.StartRoot(&sp, req.Method+" "+routeNames[route], ParseTraceparent(req.Header.Get("traceparent")))
		sp.Route = routeNames[route]
		sp.Graph = graph
		next.ServeHTTP(sw, req.WithContext(ContextWith(req.Context(), &sp)))
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		sp.Status = sw.status
		sp.End()
		finish()
	})
}

// traceResponse is the /trace/{id} body: the flat span list plus a
// parent-linked tree (spans whose parent is unknown locally — e.g. the
// client's own span — become roots).
type traceResponse struct {
	TraceID string       `json:"trace_id"`
	Spans   []SpanData   `json:"spans"`
	Tree    []*traceNode `json:"tree"`
}

type traceNode struct {
	Span     SpanData     `json:"span"`
	Children []*traceNode `json:"children,omitempty"`
}

// TraceHandler serves GET /trace/{id}. When peers is non-nil and the
// request does not carry ?local=1, the handler also fetches each peer's
// /trace/{id}?local=1 and merges the spans — the router's endpoint
// therefore returns the full cross-process tree.
func TraceHandler(tr *Tracer, client *http.Client, peers func() []string) http.Handler {
	if client == nil {
		client = &http.Client{Timeout: 2 * time.Second}
	}
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet {
			w.Header().Set("Allow", "GET")
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		idHex := strings.TrimPrefix(req.URL.Path, "/trace/")
		var id TraceID
		if len(idHex) != 32 {
			http.Error(w, "trace id must be 32 hex characters", http.StatusBadRequest)
			return
		}
		if _, err := hex.Decode(id[:], []byte(idHex)); err != nil {
			http.Error(w, "trace id must be 32 hex characters", http.StatusBadRequest)
			return
		}

		spans := tr.Collect(id)
		if peers != nil && req.URL.Query().Get("local") != "1" {
			spans = append(spans, collectPeers(client, peers(), idHex)...)
		}
		sort.Slice(spans, func(i, j int) bool { return spans[i].StartNano < spans[j].StartNano })

		resp := traceResponse{TraceID: idHex, Spans: spans, Tree: buildTree(spans)}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(resp)
	})
}

// collectPeers fans out to every peer's local-only trace endpoint and
// pools whatever spans come back; a dead peer contributes nothing rather
// than failing the whole trace.
func collectPeers(client *http.Client, peers []string, idHex string) []SpanData {
	var mu sync.Mutex
	var out []SpanData
	var wg sync.WaitGroup
	for _, p := range peers {
		wg.Add(1)
		go func(base string) {
			defer wg.Done()
			resp, err := client.Get(strings.TrimSuffix(base, "/") + "/trace/" + idHex + "?local=1")
			if err != nil {
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return
			}
			var tr traceResponse
			if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
				return
			}
			mu.Lock()
			out = append(out, tr.Spans...)
			mu.Unlock()
		}(p)
	}
	wg.Wait()
	return out
}

// buildTree links spans by parent ID; spans with no locally-known parent
// (e.g. the caller's client span) become roots.
func buildTree(spans []SpanData) []*traceNode {
	nodes := make(map[string]*traceNode, len(spans))
	for i := range spans {
		nodes[spans[i].SpanID] = &traceNode{Span: spans[i]}
	}
	var roots []*traceNode
	for i := range spans {
		n := nodes[spans[i].SpanID]
		if p, ok := nodes[spans[i].ParentID]; ok && spans[i].ParentID != spans[i].SpanID {
			p.Children = append(p.Children, n)
		} else {
			roots = append(roots, n)
		}
	}
	return roots
}

// TracerCollector exposes the tracer's own counters under /metrics.
func TracerCollector(tr *Tracer) Collector {
	return func(w *MetricWriter) {
		st := tr.Stats()
		w.Counter("spo_spans_started_total", "Spans started by this process.", float64(st.Started))
		w.Counter("spo_spans_finished_total", "Spans finished and offered to the ring.", float64(st.Finished))
		w.Counter("spo_spans_dropped_total", "Spans dropped on ring-slot contention.", float64(st.Dropped))
		w.Counter("spo_spans_logged_total", "Root spans sampled into slog.", float64(st.Sampled))
		w.Gauge("spo_trace_ring_slots", "Capacity of the in-memory span ring.", float64(st.RingSize))
	}
}

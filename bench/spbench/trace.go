package main

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/graphio"
	"repro/internal/admission"
	"repro/internal/obs"
	"repro/internal/pram"
	"repro/oracle"
	"repro/oracle/audit"
)

// spanHeader carries the client span's ID to the traced server.
const spanHeader = "X-Spbench-Span"

// span is one timed interval. Start and End are nanoseconds since the
// log's base instant; Parent is 0 for a root.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// spanLog keeps every span of a traced run in memory.
type spanLog struct {
	base  time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{base: time.Now()} }

func (l *spanLog) begin(name string, parent int64) span {
	return span{ID: l.ids.Add(1), Parent: parent, Name: name, Start: int64(time.Since(l.base))}
}

func (l *spanLog) end(s span) {
	s.End = int64(time.Since(l.base))
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

func (l *spanLog) since(t time.Time) int64 { return int64(t.Sub(l.base)) }

func (l *spanLog) write(path string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	b, err := json.Marshal(l.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

type parentKey struct{}

// child starts a span under the span carried in ctx; ok is false when ctx
// carries none (e.g. a background revalidation).
func (l *spanLog) child(ctx context.Context, name string) (span, bool) {
	parent, ok := ctx.Value(parentKey{}).(int64)
	if !ok {
		return span{}, false
	}
	return l.begin(name, parent), true
}

// handler records an "http" span around next, parented to the client span
// named in the request header, and passes the span on in the context.
func (l *spanLog) handler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
		s := l.begin("http", parent)
		next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), parentKey{}, s.ID)))
		l.end(s)
	})
}

// tracedEngine records an engine.<method> span around the context-aware
// queries the registry handler makes. Embedding *oracle.Engine keeps the
// Backend, MatrixBackend, OffsetBackend and AuditableBackend surfaces.
type tracedEngine struct {
	*oracle.Engine
	spans *spanLog
}

func (e *tracedEngine) DistContext(ctx context.Context, source int32) ([]float64, error) {
	if s, ok := e.spans.child(ctx, "engine.dist"); ok {
		defer e.spans.end(s)
	}
	return e.Engine.Dist(source)
}

func (e *tracedEngine) PathContext(ctx context.Context, u, v int32) ([]int32, float64, error) {
	if s, ok := e.spans.child(ctx, "engine.path"); ok {
		defer e.spans.end(s)
	}
	return e.Engine.Path(u, v)
}

func (e *tracedEngine) MatrixContext(ctx context.Context, sources, targets []int32) ([][]float64, error) {
	if s, ok := e.spans.child(ctx, "engine.matrix"); ok {
		defer e.spans.end(s)
	}
	return e.Engine.Matrix(sources, targets)
}

var (
	_ oracle.ContextBackend       = (*tracedEngine)(nil)
	_ oracle.ContextMatrixBackend = (*tracedEngine)(nil)
	_ oracle.MatrixBackend        = (*tracedEngine)(nil)
	_ oracle.OffsetBackend        = (*tracedEngine)(nil)
	_ oracle.AuditableBackend     = (*tracedEngine)(nil)
)

// firstBuild holds the PRAM counts of the first traced build.
type firstBuild struct {
	once   sync.Once
	counts pram.Counts
}

// tracedSource is cmd/serve's -graph-dir engine source (oracle.FileSource
// with -eps 0.25 -paths) with build.graphio and build.hopset spans.
func tracedSource(path string, spans *spanLog, fb *firstBuild) oracle.EngineSource {
	return func(ctx context.Context, opts ...oracle.Option) (oracle.Backend, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		s := spans.begin("build.graphio", 0)
		g, _, err := graphio.LoadFile(path)
		spans.end(s)
		if err != nil {
			return nil, err
		}
		tr := pram.New()
		all := append([]oracle.Option{oracle.WithEpsilon(serveEpsilon), oracle.WithPathReporting()}, opts...)
		s = spans.begin("build.hopset", 0)
		eng, err := oracle.New(g, append(all, oracle.WithTracker(tr))...)
		spans.end(s)
		if err != nil {
			return nil, err
		}
		fb.once.Do(func() { fb.counts = tr.Snapshot() })
		return &tracedEngine{Engine: eng, spans: spans}, nil
	}
}

// serveEpsilon is cmd/serve's default -eps.
const serveEpsilon = 0.25

// inProcess is a copy of cmd/serve's serving stack built from public
// constructors, with the benchmark's spans around each layer.
type inProcess struct {
	reg     *oracle.Registry
	auditor *audit.Auditor
	srv     *http.Server
	served  chan error
	base    string
	fb      firstBuild
}

func startInProcess(path, name string, spans *spanLog) (*inProcess, error) {
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	p := &inProcess{}
	slo := obs.NewSLO(obs.DefaultObjective(), quiet)
	p.auditor = audit.New(audit.Config{
		SampleRate: 0.01,
		Workers:    2,
		Logger:     quiet,
		OnResult:   func(res audit.Result) { slo.ObserveAudit(res.Graph, res.Violation != "") },
	})
	p.reg = oracle.NewRegistry(oracle.RegistryConfig{
		HotPairCache: 4096,
		Audit:        p.auditor,
		EngineOptions: []oracle.Option{
			oracle.WithDistCache(256),
			oracle.WithBatchWindow(0),
		},
	})
	if err := p.reg.Add(name, tracedSource(path, spans, &p.fb)); err != nil {
		p.close()
		return nil, err
	}
	lim := admission.New(0)
	tr := obs.NewTracer("serve", obs.TracerOptions{Logger: quiet})
	h := obs.Middleware(tr, obs.NewHTTPMetrics(), slo, admission.Middleware(oracle.NewRegistryHandler(p.reg), lim))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		p.close()
		return nil, err
	}
	p.base = "http://" + ln.Addr().String()
	p.srv = &http.Server{Handler: spans.handler(h)}
	p.served = make(chan error, 1)
	go func() { p.served <- p.srv.Serve(ln) }()
	return p, nil
}

func (p *inProcess) close() {
	if p.srv != nil {
		p.srv.Shutdown(context.Background())
		if err := <-p.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
			slog.Warn("in-process server", "error", err)
		}
	}
	p.reg.Close()
	p.auditor.Close()
}

// spanStats derives the per-layer times from the spans of requests sent at
// or after from (ns since the log base).
type spanStats struct {
	transportSelfUs []float64
	httpSelfUs      []float64
	// engineUs holds every engine span of the replay, warmup included: on
	// workloads whose caches answer everything in the window, the warmup's
	// cache fills are the only engine calls.
	engineUs map[string][]float64
	// accounted is (transport self + http self + engine) / client, summed
	// over requests: 1 when the layers tile the client span.
	accounted float64
	buildS    map[string]float64 // first build.* span of each name
}

func analyzeSpans(l *spanLog, from int64) spanStats {
	l.mu.Lock()
	spans := append([]span(nil), l.spans...)
	l.mu.Unlock()
	kids := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	st := spanStats{engineUs: map[string][]float64{}, buildS: map[string]float64{}}
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	var clientSum, partSum float64
	for _, s := range spans {
		if strings.HasPrefix(s.Name, "build.") {
			if _, seen := st.buildS[s.Name]; !seen {
				st.buildS[s.Name] = s.dur().Seconds()
			}
		}
		if strings.HasPrefix(s.Name, "engine.") {
			st.engineUs[s.Name] = append(st.engineUs[s.Name], us(s.dur()))
		}
		if s.Name != "client" || s.Start < from {
			continue
		}
		https := kids[s.ID]
		transport := s.dur() - covered(s, https)
		part := transport
		for _, h := range https {
			engines := kids[h.ID]
			self := h.dur() - covered(h, engines)
			part += self
			st.httpSelfUs = append(st.httpSelfUs, us(self))
			for _, e := range engines {
				part += e.dur()
			}
		}
		st.transportSelfUs = append(st.transportSelfUs, us(transport))
		clientSum += float64(s.dur())
		partSum += float64(part)
	}
	if clientSum > 0 {
		st.accounted = partSum / clientSum
	}
	sort.Float64s(st.transportSelfUs)
	sort.Float64s(st.httpSelfUs)
	for _, v := range st.engineUs {
		sort.Float64s(v)
	}
	return st
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// covered is the length of the part of p's interval that the union of
// children covers.
func covered(p span, children []span) time.Duration {
	if len(children) == 0 {
		return 0
	}
	cs := append([]span(nil), children...)
	sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
	var total int64
	cur := p.Start
	for _, c := range cs {
		lo, hi := max(c.Start, cur), min(c.End, p.End)
		if hi > lo {
			total += hi - lo
			cur = hi
		}
	}
	return time.Duration(total)
}

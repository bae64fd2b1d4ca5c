package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"
)

// Phases of a run. Warmup requests are sent but not recorded.
const (
	phaseWarmup = iota
	phaseOpen
	phaseClosed
)

// connections is the number of keep-alive connections the load generator
// drives the server with: one per core of the 2-core machine the rates
// were calibrated on.
const connections = 2

// verifyEvery: every verifyEvery-th answer of each op kind is kept and
// checked against exact Dijkstra after the run.
const verifyEvery = 16

// result is one completed request.
type result struct {
	req   request
	phase int
	// at is the instant the request was due: its scheduled arrival in the
	// open loop, its send instant in the closed loop. Latency counts from it.
	at   time.Time
	done time.Time
	// wait is the time from at until the request was sent: waiting for a
	// free connection, plus the sender's wake-up lateness.
	wait    time.Duration
	status  int
	err     error
	bytes   int
	version int64
	stale   bool
	// body is kept only for answers selected for verification.
	body []byte
}

func (r *result) ok() bool               { return r.err == nil && r.status == http.StatusOK }
func (r *result) latency() time.Duration { return r.done.Sub(r.at) }

// target is the HTTP server under load.
type target struct {
	base, graph string
	hc          *http.Client
	// spans, when set, records a client span per request and tags the
	// request so the traced server can link its spans to it.
	spans *spanLog
}

func newTarget(base, graph string) *target {
	tr := &http.Transport{
		MaxConnsPerHost:     connections,
		MaxIdleConnsPerHost: connections,
		DisableCompression:  true,
	}
	return &target{base: base, graph: graph, hc: &http.Client{Transport: tr, Timeout: 30 * time.Second}}
}

func (t *target) close() { t.hc.CloseIdleConnections() }

// httpRequest renders one stream element as an HTTP request.
func (t *target) httpRequest(ctx context.Context, r request) (*http.Request, error) {
	g := t.base + "/graphs/" + t.graph
	switch r.op {
	case opDist:
		return http.NewRequestWithContext(ctx, http.MethodGet, fmt.Sprintf("%s/dist?source=%d&target=%d", g, r.src, r.dst), nil)
	case opRow:
		return http.NewRequestWithContext(ctx, http.MethodGet, fmt.Sprintf("%s/dist?source=%d", g, r.src), nil)
	case opPath:
		return http.NewRequestWithContext(ctx, http.MethodGet, fmt.Sprintf("%s/path?from=%d&to=%d", g, r.src, r.dst), nil)
	}
	var body bytes.Buffer
	body.WriteString(`{"sources":`)
	writeIDs(&body, r.sources)
	body.WriteString(`,"targets":`)
	writeIDs(&body, r.targets)
	body.WriteByte('}')
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, g+"/matrix", &body)
	if err == nil {
		req.Header.Set("Content-Type", "application/json")
	}
	return req, err
}

func writeIDs(b *bytes.Buffer, ids []int32) {
	b.WriteByte('[')
	for i, v := range ids {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(int(v)))
	}
	b.WriteByte(']')
}

// do sends one request and fills res. buf is the caller's reusable body
// buffer.
func (t *target) do(ctx context.Context, res *result, buf *bytes.Buffer) {
	req, err := t.httpRequest(ctx, res.req)
	if err != nil {
		res.err = err
		res.done = time.Now()
		return
	}
	var sp span
	if t.spans != nil {
		sp = t.spans.begin("client", 0)
		req.Header.Set(spanHeader, strconv.FormatInt(sp.ID, 10))
	}
	resp, err := t.hc.Do(req)
	if err != nil {
		res.err = err
		res.done = time.Now()
		return
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	res.done = time.Now()
	if t.spans != nil {
		t.spans.end(sp)
	}
	res.status = resp.StatusCode
	res.err = err
	res.bytes = buf.Len()
	res.version, res.stale = versionOf(buf.Bytes())
	if res.req.ord%verifyEvery == 0 {
		res.body = bytes.Clone(buf.Bytes())
	}
}

// versionOf pulls "version" and "stale" out of a response body without a
// full JSON decode (a full row is tens of kilobytes).
func versionOf(body []byte) (int64, bool) {
	var ver int64
	if i := bytes.Index(body, []byte(`"version":`)); i >= 0 {
		rest := body[i+len(`"version":`):]
		j := 0
		for j < len(rest) && rest[j] >= '0' && rest[j] <= '9' {
			j++
		}
		ver, _ = strconv.ParseInt(string(rest[:j]), 10, 64)
	}
	return ver, bytes.Contains(body, []byte(`"stale":true`))
}

// recorder collects results from the load goroutines.
type recorder struct {
	mu      sync.Mutex
	results []*result
	// lags are how late idle workers woke for their open-loop requests.
	lags []time.Duration
}

func (rc *recorder) add(r *result) {
	rc.mu.Lock()
	rc.results = append(rc.results, r)
	rc.mu.Unlock()
}

// openLoop sends the stream's requests at evenly spaced instants from
// start for warmup+window and returns once every one has completed. Each
// connection's worker takes the next due request, sleeps until its instant
// and sends it; when both are busy, the request waits for the first free
// connection, and that wait counts in its latency. mu guards st.
func (t *target) openLoop(ctx context.Context, st *stream, mu *sync.Mutex, start time.Time, warmup, window time.Duration, rc *recorder) {
	measured := start.Add(warmup)
	period := time.Duration(float64(time.Second) / st.w.rate)
	arrivals := int((warmup + window) / period)
	next := 0 // index of the next request to send, guarded by mu
	var wg sync.WaitGroup
	for c := 0; c < connections; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer lockPreciseThread()()
			var buf bytes.Buffer
			for ctx.Err() == nil {
				mu.Lock()
				i := next
				if i == arrivals {
					mu.Unlock()
					return
				}
				next++
				r := st.next()
				mu.Unlock()
				at := start.Add(time.Duration(i) * period)
				res := &result{req: r, phase: phaseOpen, at: at}
				if at.Before(measured) {
					res.phase = phaseWarmup
				}
				early := time.Now().Before(at)
				sleepPrecise(at)
				res.wait = time.Since(at)
				if early && res.phase == phaseOpen {
					rc.mu.Lock()
					rc.lags = append(rc.lags, res.wait)
					rc.mu.Unlock()
				}
				t.do(ctx, res, &buf)
				if res.phase != phaseWarmup {
					rc.add(res)
				}
			}
		}()
	}
	wg.Wait()
}

// closedLoop runs `connections` clients that each send the stream's next
// request as soon as their previous one completes, until window elapses.
func (t *target) closedLoop(ctx context.Context, st *stream, mu *sync.Mutex, window time.Duration, rc *recorder) {
	end := time.Now().Add(window)
	var wg sync.WaitGroup
	for c := 0; c < connections; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for ctx.Err() == nil && time.Now().Before(end) {
				mu.Lock()
				r := st.next()
				mu.Unlock()
				res := &result{req: r, phase: phaseClosed, at: time.Now()}
				t.do(ctx, res, &buf)
				rc.add(res)
			}
		}()
	}
	wg.Wait()
}

// reload POSTs a hot reload and returns the version the graph served when
// it was accepted.
func (t *target) reload(ctx context.Context) (int64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, t.base+"/graphs/"+t.graph+"/reload", nil)
	if err != nil {
		return 0, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusAccepted {
		return 0, fmt.Errorf("reload: status %s", resp.Status)
	}
	ver, _ := versionOf(body)
	return ver, nil
}

// prefill computes the rows of sources in batches of 64 (one batched
// kernel traversal each) through POST multi, filling the engine's
// distance cache.
func (t *target) prefill(ctx context.Context, sources []int32) error {
	for i := 0; i < len(sources); i += 64 {
		var body bytes.Buffer
		body.WriteString(`{"sources":`)
		writeIDs(&body, sources[i:min(i+64, len(sources))])
		body.WriteByte('}')
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, t.base+"/graphs/"+t.graph+"/multi", &body)
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := t.hc.Do(req)
		if err != nil {
			return err
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("prefill: status %s", resp.Status)
		}
	}
	return nil
}

// quantile returns the nearest-rank q-quantile of sorted xs (0 if empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	i := int(q*float64(len(xs))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

func sortedMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(out)
	return out
}

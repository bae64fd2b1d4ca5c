package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/graphio"
	"repro/internal/graph"
	"repro/oracle"
)

// setupReps is how many fresh servers a run starts. setup_s and
// peak_rss_mb are the medians of their spawn-to-ready times and of their
// peak RSS when ready; the last one serves the load.
const setupReps = 2

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// report is one workload run.
type report struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	StreamHash string `json:"stream_hash"`
	StreamLen  int    `json:"stream_len"`
	Attempted  int    `json:"attempted"`
	Failed     int    `json:"failed"`
	// Violations lists the answers the verifier rejected.
	Violations []string `json:"violations,omitempty"`
	// EndToEnd holds the gated metrics, Layers the per-layer ones (those
	// from the server's counters on every run, all of them on traced runs)
	// and Diag ungated diagnostics.
	EndToEnd metrics `json:"end_to_end"`
	Layers   metrics `json:"per_layer,omitempty"`
	Diag     metrics `json:"diag"`
}

// runConfig is one invocation's settings.
type runConfig struct {
	seed    int64
	seconds time.Duration
	trace   bool
	work    string // scratch directory for graphs and the serve binary
	serve   string // cmd/serve binary
	// spans is the path prefix traced runs write <prefix>.<workload>.spans.json to.
	spans string
}

// windows splits a run's measured time: a warmup that is executed but not
// recorded, the open-loop window, then the closed-loop window, which takes
// two thirds instead of one on workloads with reloads.
func (c runConfig) windows(w *workload) (warmup, open, closed time.Duration) {
	warmup = max(c.seconds/8, 500*time.Millisecond)
	closed = c.seconds / 3
	if w.reloadEvery > 0 {
		closed = c.seconds * 2 / 3
	}
	return warmup, c.seconds - closed, closed
}

// loadResult is what one load pass against a server produced.
type loadResult struct {
	results    []*result
	lags       []time.Duration
	measured   time.Time // start of the open-loop window
	closedAt   time.Time // start of the closed-loop window
	closedTime time.Duration
	hash       string
	streamLen  int
	reloads    []reloadMark
}

type reloadMark struct {
	accepted time.Time
	version  int64
}

// drive runs warmup, the open-loop window and the closed-loop window of
// w's stream against tgt. onMeasure runs at the start of the open-loop
// window; reloads fire during the closed-loop window when the workload has
// them.
func drive(ctx context.Context, w *workload, n int, seed int64, tgt *target, warmup, open, closed time.Duration, onMeasure func()) (*loadResult, error) {
	st := newStream(w, n, seed)
	if hot := st.hot(); hot != nil {
		if err := tgt.prefill(ctx, hot); err != nil {
			return nil, err
		}
	}
	rc := &recorder{}
	lr := &loadResult{}
	start := time.Now().Add(10 * time.Millisecond)
	lr.measured = start.Add(warmup)

	var measureWG sync.WaitGroup
	if onMeasure != nil {
		measureWG.Add(1)
		go func() {
			defer measureWG.Done()
			if sleepUntil(ctx, lr.measured) {
				onMeasure()
			}
		}()
	}
	var mu sync.Mutex
	tgt.openLoop(ctx, st, &mu, start, warmup, open, rc)
	measureWG.Wait()
	lr.hash, lr.streamLen = st.Hash(), st.ords[0]+st.ords[1]+st.ords[2]+st.ords[3]

	// Reloads run at fixed offsets into the closed-loop window, so every
	// run sees its rebuilds, swaps and revalidations at the same phase.
	var reloadWG sync.WaitGroup
	var reloadErr error
	bg, stopReloads := context.WithCancel(ctx)
	defer stopReloads()
	lr.closedAt = time.Now()
	if w.reloadEvery > 0 && closed > 0 {
		reloadWG.Add(1)
		go func() {
			defer reloadWG.Done()
			for at := lr.closedAt; sleepUntil(bg, at); at = at.Add(w.reloadEvery) {
				ver, err := tgt.reload(bg)
				if err != nil {
					if bg.Err() == nil {
						reloadErr = err
					}
					return
				}
				lr.reloads = append(lr.reloads, reloadMark{accepted: time.Now(), version: ver})
			}
		}()
	}
	tgt.closedLoop(ctx, st, &mu, closed, rc)
	lr.closedTime = time.Since(lr.closedAt)
	stopReloads()
	reloadWG.Wait()
	if reloadErr != nil {
		return nil, reloadErr
	}
	lr.results, lr.lags = rc.results, rc.lags
	return lr, ctx.Err()
}

// logf prints a progress line with the time since the process started to
// standard error.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "spbench %6.2fs "+format+"\n", append([]any{time.Since(processStart).Seconds()}, args...)...)
}

var processStart = time.Now()

func sleepUntil(ctx context.Context, t time.Time) bool {
	select {
	case <-ctx.Done():
		return false
	case <-time.After(time.Until(t)):
		return true
	}
}

// runWorkload performs one full run of w: the untraced subprocess run,
// and with c.trace the in-process traced replay and kernel pass.
func runWorkload(ctx context.Context, c runConfig, w *workload) (*report, error) {
	dir, err := os.MkdirTemp(c.work, w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	g := w.family(w.n, c.seed)
	graphDir := filepath.Join(dir, "graphs")
	if err := os.Mkdir(graphDir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(graphDir, w.graph+".csrg")
	if err := graphio.EncodeFile(path, g); err != nil {
		return nil, err
	}
	rep := &report{
		Workload: w.name, Seed: c.seed, Seconds: int(c.seconds / time.Second), Trace: c.trace,
		EndToEnd: metrics{}, Layers: metrics{}, Diag: metrics{},
	}
	logf("%s: graph n=%d m=%d written", w.name, g.N, g.M())
	ver := newVerifier(g, serveEpsilon)
	if err := runServed(ctx, c, w, g, graphDir, rep, ver); err != nil {
		return nil, err
	}
	if c.trace {
		if err := runTraced(ctx, c, w, g, path, rep, ver); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// runServed is the untraced run against fresh cmd/serve processes. Besides
// the end-to-end metrics it fills the per-layer metrics that come from the
// server's own counters and /proc.
func runServed(ctx context.Context, c runConfig, w *workload, g *graph.Graph, graphDir string, rep *report, ver *verifier) error {
	var setups, readyRSS []float64
	var srv *server
	for i := 0; i < setupReps; i++ {
		s, d, err := startServer(ctx, c.serve, graphDir, w.graph)
		if err != nil {
			return err
		}
		setups = append(setups, d.Seconds())
		ps, err := s.proc()
		if err != nil {
			s.stop()
			return err
		}
		readyRSS = append(readyRSS, ps.hwmMiB)
		if i < setupReps-1 {
			s.stop()
		} else {
			srv = s
		}
	}
	defer srv.stop()
	rep.EndToEnd.set("setup_s", median(setups), "s")
	rep.EndToEnd.set("peak_rss_mb", median(readyRSS), "MiB")
	logf("%s: %d servers set up in %.2fs each (median)", w.name, setupReps, median(setups))

	tgt := newTarget(srv.base, w.graph)
	defer tgt.close()
	var (
		before     serverStats
		procBefore procStat
		measureErr error
	)
	warmup, open, closed := c.windows(w)
	lr, err := drive(ctx, w, g.N, c.seed, tgt, warmup, open, closed, func() {
		before, measureErr = scrapeStats(srv.base, w.graph)
		if measureErr == nil {
			procBefore, measureErr = srv.proc()
		}
	})
	if err != nil {
		return err
	}
	if measureErr != nil {
		return measureErr
	}
	after, err := scrapeStats(srv.base, w.graph)
	if err != nil {
		return err
	}
	procAfter, err := srv.proc()
	if err != nil {
		return err
	}
	logf("%s: load done, %d requests", w.name, len(lr.results))
	rep.StreamHash, rep.StreamLen = lr.hash, lr.streamLen

	ok, failed, closedOK := count(lr)
	rep.EndToEnd.set("closed_qps", float64(closedOK)/lr.closedTime.Seconds(), "1/s")
	for op, ms := range openLatencies(lr) {
		if len(ms) == 0 {
			continue
		}
		name := opNames[op]
		if op == opDist {
			rep.EndToEnd.set("dist_p50_ms", quantile(ms, 0.5), "ms")
			// Demoted from end-to-end: on road-hot and road-reload the p90
			// of a 40µs cache hit sits on the knee of the VM's wake-up
			// tail and moved by 0.26–0.35 between seeds on a 2-core VM.
			rep.Layers.set("dist_p90_ms", quantile(ms, 0.9), "ms")
		} else {
			rep.Diag.set(name+"_p50_ms", quantile(ms, 0.5), "ms")
			rep.Diag.set(name+"_p90_ms", quantile(ms, 0.9), "ms")
		}
		rep.Diag.set("diag."+name+"_p99_ms", quantile(ms, 0.99), "ms")
		rep.Diag.set("diag."+name+"_samples", float64(len(ms)), "count")
	}
	rep.Attempted += len(lr.results)
	rep.Failed += failed
	rep.Violations = append(rep.Violations, verify(lr.results, ver)...)
	rep.Failed += len(rep.Violations)
	rep.Diag.set("diag.serve_peak_rss_mb", procAfter.hwmMiB, "MiB")
	if len(lr.reloads) > 0 {
		if s, ok := reloadSeconds(lr); ok {
			rep.Diag.set("reload_s", s, "s")
		}
		rep.Diag.set("diag.reloads", float64(len(lr.reloads)), "count")
	}

	lm := rep.Layers
	lags := sortedMs(lr.lags)
	lm.set("loadgen.lag_p99_ms", quantile(lags, 0.99), "ms")
	var waits []time.Duration
	var bytes float64
	for _, r := range lr.results {
		if r.phase == phaseOpen {
			waits = append(waits, r.wait)
		}
		bytes += float64(r.bytes)
	}
	lm.set("loadgen.conn_wait_p90_ms", quantile(sortedMs(waits), 0.9), "ms")
	lm.set("http.resp_bytes_mean", bytes/float64(max(1, len(lr.results))), "bytes")
	lm.set("http.rejected", float64(after.Admission.Rejected-before.Admission.Rejected), "count")
	lm.set("fail_frac", float64(failed+len(rep.Violations))/float64(max(1, len(lr.results))), "ratio")

	if hb, ha := before.HotPair, after.HotPair; hb != nil && ha != nil {
		hits, stale, miss := ha.Hits-hb.Hits, ha.StaleHits-hb.StaleHits, ha.Misses-hb.Misses
		lm.set("registry.hot_hit_ratio", ratio(float64(hits), float64(hits+stale+miss)), "ratio")
		lm.set("registry.stale_hits", float64(stale), "count")
		lm.set("registry.revalidations", float64(ha.Revalidations-hb.Revalidations), "count")
	}
	eb, ea := before.Engine, after.Engine
	if after.Graph.Version != before.Graph.Version {
		// A reload swapped in a fresh engine whose counters started at
		// zero: count from the swap.
		eb = oracle.Stats{}
	}
	lm.set("engine.dist_hit_ratio", ratio(float64(ea.DistCache.Hits-eb.DistCache.Hits),
		float64(ea.DistCache.Hits+ea.DistCache.Misses-eb.DistCache.Hits-eb.DistCache.Misses)), "ratio")
	lm.set("engine.tree_hit_ratio", ratio(float64(ea.TreeCache.Hits-eb.TreeCache.Hits),
		float64(ea.TreeCache.Hits+ea.TreeCache.Misses-eb.TreeCache.Hits-eb.TreeCache.Misses)), "ratio")
	q := float64(max(1, ok))
	busy, calls := engineBusy(ea)
	lm.set("engine.busy_ms_per_query", ratio(busy, calls)/1000, "ms")
	rb, ra := eb.Relax, ea.Relax
	rounds := float64(ra.DenseRounds + ra.SparseRounds - rb.DenseRounds - rb.SparseRounds)
	lm.set("kernel.arcs_per_query", float64(ra.ScannedArcs-rb.ScannedArcs)/q, "arcs")
	lm.set("kernel.rounds_per_exploration", ratio(rounds, float64(ra.Explorations-rb.Explorations)), "rounds")
	lm.set("kernel.dense_round_frac", ratio(float64(ra.DenseRounds-rb.DenseRounds), rounds), "ratio")
	lm.set("build.hopset_edges", float64(after.Graph.HopsetEdges), "edges")
	lm.set("build.engine_mb", float64(after.Graph.MemoryBytes)/(1<<20), "MiB")
	if after.Audit != nil && before.Audit != nil {
		lm.set("audit.audited", float64(after.Audit.Audited-before.Audit.Audited), "count")
		lm.set("audit.dropped", float64(after.Audit.Dropped-before.Audit.Dropped), "count")
		if after.Audit.Violations > 0 {
			rep.Violations = append(rep.Violations, fmt.Sprintf("server shadow audit reported %d violations", after.Audit.Violations))
		}
	}
	lm.set("server.cpu_ms_per_query", float64(procAfter.cpu-procBefore.cpu)/float64(time.Millisecond)/q, "ms")
	logf("%s: verified", w.name)
	return nil
}

// engineBusy sums the serving engine's own latency histograms since it was
// built: total µs spent in engine calls, and the number of calls. Taken
// over the engine's life rather than the window, since on road-hot the
// window never reaches the engine.
func engineBusy(st oracle.Stats) (us, calls float64) {
	for _, l := range st.Latency {
		us += float64(l.Count) * l.MeanUs
		calls += float64(l.Count)
	}
	return us, calls
}

func ratio(a, b float64) float64 {
	if b <= 0 {
		return 0
	}
	return a / b
}

// openLatencies returns the sorted open-loop latencies, in ms, of the
// successful requests of each op kind.
func openLatencies(lr *loadResult) [numOps][]float64 {
	var lat [numOps][]time.Duration
	for _, r := range lr.results {
		if r.ok() && r.phase == phaseOpen {
			lat[r.req.op] = append(lat[r.req.op], r.latency())
		}
	}
	var out [numOps][]float64
	for op := range lat {
		out[op] = sortedMs(lat[op])
	}
	return out
}

// count returns how many requests succeeded, failed, and succeeded in the
// closed loop.
func count(lr *loadResult) (ok, failed, closedOK int) {
	for _, r := range lr.results {
		switch {
		case !r.ok():
			failed++
		case r.phase == phaseClosed:
			ok++
			closedOK++
		default:
			ok++
		}
	}
	return ok, failed, closedOK
}

// reloadSeconds is the median, over reloads, of the time from the 202
// until the first response carrying a newer version.
func reloadSeconds(lr *loadResult) (float64, bool) {
	rs := append([]*result(nil), lr.results...)
	sort.Slice(rs, func(i, j int) bool { return rs[i].done.Before(rs[j].done) })
	var ds []float64
	for _, m := range lr.reloads {
		for _, r := range rs {
			if r.ok() && r.done.After(m.accepted) && r.version > m.version && !r.stale {
				ds = append(ds, r.done.Sub(m.accepted).Seconds())
				break
			}
		}
	}
	if len(ds) == 0 {
		return 0, false
	}
	return median(ds), true
}

// verify checks every kept answer and the stale-serving order, and
// returns one line per violation.
func verify(results []*result, v *verifier) []string {
	var out []string
	for _, r := range results {
		if r.body == nil || !r.ok() {
			continue
		}
		if err := v.check(r.req, r.body); err != nil {
			out = append(out, fmt.Sprintf("%s #%d: %v", opNames[r.req.op], r.req.ord, err))
		}
	}
	if err := checkStale(results); err != nil {
		out = append(out, err.Error())
	}
	return out
}

// runTraced replays the same seed and stream in process with spans, then
// runs the kernel pass.
func runTraced(ctx context.Context, c runConfig, w *workload, g *graph.Graph, path string, rep *report, ver *verifier) error {
	spans := newSpanLog()
	p, err := startInProcess(path, w.graph, spans)
	if err != nil {
		return err
	}
	defer p.close()
	wctx, cancel := context.WithTimeout(ctx, 150*time.Second)
	defer cancel()
	if err := p.reg.WaitReady(wctx, w.graph); err != nil {
		return err
	}
	tgt := newTarget(p.base, w.graph)
	tgt.spans = spans
	defer tgt.close()
	warmup, open, _ := c.windows(w)
	lr, err := drive(ctx, w, g.N, c.seed, tgt, warmup, open, 0, nil)
	if err != nil {
		return err
	}
	rep.Attempted += len(lr.results)
	_, failed, _ := count(lr)
	rep.Failed += failed
	viol := verify(lr.results, ver)
	rep.Violations = append(rep.Violations, viol...)
	rep.Failed += len(viol)

	lm := rep.Layers
	ss := analyzeSpans(spans, spans.since(lr.measured))
	lm.set("transport.self_us_p50", quantile(ss.transportSelfUs, 0.5), "us")
	lm.set("http.self_us_p50", quantile(ss.httpSelfUs, 0.5), "us")
	lm.set("http.self_us_p90", quantile(ss.httpSelfUs, 0.9), "us")
	lm.set("engine.dist_us_p50", quantile(ss.engineUs["engine.dist"], 0.5), "us")
	for _, name := range []string{"path", "matrix"} {
		if xs := ss.engineUs["engine."+name]; len(xs) > 0 {
			rep.Diag.set("engine."+name+"_us_p50", quantile(xs, 0.5), "us")
		}
	}
	rep.Diag.set("trace.accounted_frac", ss.accounted, "ratio")
	tracedP50 := quantile(openLatencies(lr)[opDist], 0.5)
	lm.set("trace.overhead_ratio", ratio(tracedP50, rep.EndToEnd["dist_p50_ms"].Value), "ratio")
	lm.set("build.hopset_s", ss.buildS["build.hopset"], "s")
	lm.set("build.graphio_ms", ss.buildS["build.graphio"]*1000, "ms")
	lm.set("build.pram_work", float64(p.fb.counts.Work), "ops")
	lm.set("build.pram_depth", float64(p.fb.counts.Depth), "rounds")

	h, err := p.reg.Acquire(w.graph)
	if err != nil {
		return err
	}
	defer h.Release()
	te, ok := h.Engine().(*tracedEngine)
	if !ok {
		return errors.New("traced registry serves an unexpected backend")
	}
	ks, err := kernelPass(te.Solver(), g, distinctSources(w, g.N, c.seed, kernelSources))
	if err != nil {
		return err
	}
	hop, plain := median(ks.hopsetArcs), median(ks.plainArcs)
	lm.set("kernel.hopset_bf_us", median(ks.hopsetUs), "us")
	lm.set("kernel.hopset_bf_arcs", hop, "arcs")
	lm.set("kernel.plain_bf_us", median(ks.plainUs), "us")
	lm.set("kernel.plain_bf_arcs", plain, "arcs")
	lm.set("kernel.dijkstra_us", median(ks.dijkstraUs), "us")
	lm.set("kernel.arc_ratio_vs_plain", ratio(hop, plain), "ratio")
	lm.set("kernel.ns_per_arc", ratio(median(ks.hopsetUs)*1000, hop), "ns")
	lm.set("kernel.batch8_us", median(ks.batch8Us), "us")
	lm.set("pathrep.spt_us", median(ks.sptUs), "us")
	return spans.write(c.spans + "." + w.name + ".spans.json")
}

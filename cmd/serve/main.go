// Command serve runs the multi-graph distance-oracle registry as an
// HTTP/JSON service — the build-once / query-many deployment the hopset
// construction is made for, scaled to many resident graphs: engines build
// in the background off the request path, each graph exposes its own
// readiness, and POST /graphs/{name}/reload hot-swaps a rebuilt or
// re-snapshotted engine with zero downtime (in-flight queries drain on the
// old version's refcount).
//
//	serve -n 4096 -m 16384 -eps 0.25 -addr :8080     # one generated graph, "default"
//	serve -in USA-road-d.NY.gr -paths                # one graph from any graphio format
//	serve -snapshot oracle.snap                      # revive "default" from a snapshot
//	serve -snapshot-dir snapshots/                   # every snapshots/<name>.snap, by name
//	serve -graph-dir datasets/                       # every raw graph file, built in background
//	serve -route-manifest data/ny.shards.json \
//	      -shard-peers http://w1:8081,http://w2:8081 # route shards to worker processes
//
// -graph-dir registers every supported dataset file (DIMACS .gr, edge
// lists, METIS, legacy text, .csrg — each optionally .gz) under its base
// name; engines build in the background and the file is re-read on every
// POST /graphs/{name}/reload.
//
// -route-manifest serves one sharded graph whose per-shard engines live
// in cmd/shardserve worker processes: queries scatter-gather over the
// placement (-placement file, or -shard-peers replicating every shard on
// every peer) with health-probe failover and hedged requests (-hedge
// fixes the delay; default derives it from each endpoint's p99). The
// engine flags (-eps, -kappa via worker, -paths) must match the workers'
// — that flag parity is the bit-identity contract. Reload re-reads both
// manifest and placement.
//
// Routes (see oracle.NewRegistryHandler):
//
//	GET  /graphs                    all graphs + aggregate stats
//	GET  /graphs/{name}/ready       per-graph readiness (200/503)
//	GET  /graphs/{name}/dist?source=S[&target=T]
//	GET  /graphs/{name}/path?from=U&to=V
//	POST /graphs/{name}/matrix      many-to-many S×T distance matrix
//	POST /graphs/{name}/multi       one dist row per source
//	POST /graphs/{name}/nearest     per-vertex distance to nearest source
//	GET  /graphs/{name}/tree?source=S
//	GET  /graphs/{name}/stats
//	POST /graphs/{name}/reload      rebuild + hot swap
//	GET  /healthz                   registry aggregate status (503 until a graph serves)
//
// The single-graph flags (-n/-m, -in, -snapshot) register graph
// "default", served under /graphs/default/…. With -save-snapshot the
// built default engine is persisted once ready, so the next start can
// come up via -snapshot (or -snapshot-dir) without rebuilding.
//
// SIGINT/SIGTERM shut down gracefully: the listener stops accepting,
// in-flight HTTP requests drain (bounded by -drain), and the registry
// closes — canceling background builds and retiring engines.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/graphio"
	"repro/internal/admission"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/oracle"
	"repro/oracle/audit"
	"repro/shard"
)

// fatal logs a structured error event and exits — the slog replacement
// for log.Fatal at startup.
func fatal(msg string, err error) {
	if err != nil {
		slog.Error(msg, slog.String("error", err.Error()))
	} else {
		slog.Error(msg)
	}
	os.Exit(1)
}

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		in       = flag.String("in", "", "input graph file, any supported format (empty: generate gnm)")
		n        = flag.Int("n", 4096, "vertices (generated)")
		m        = flag.Int("m", 16384, "edges (generated)")
		seed     = flag.Int64("seed", 1, "generator seed")
		eps      = flag.Float64("eps", 0.25, "stretch target ε")
		paths    = flag.Bool("paths", true, "record memory paths (enables /path)")
		cache    = flag.Int("cache", 256, "distance-vector LRU capacity")
		batch    = flag.Duration("batch", 0, "dist-query coalescing window (0 = off)")
		snap     = flag.String("snapshot", "", "snapshot file for the \"default\" graph")
		snapDir  = flag.String("snapshot-dir", "", "serve every <name>.snap in this directory by name")
		graphDir = flag.String("graph-dir", "", "serve every supported raw graph file in this directory by name")
		save     = flag.String("save-snapshot", "", "persist the built default engine to this file once ready")
		workers  = flag.Int("build-workers", 0, "bound on concurrent background builds (0 = auto)")
		budget   = flag.Int64("mem-budget", 0, "memory budget in bytes for resident engines (0 = unlimited)")
		drain    = flag.Duration("drain", 15*time.Second, "graceful-shutdown drain bound for in-flight requests")
		inflight = flag.Int("max-inflight", 0, "admission limit on in-flight query cost units (a /matrix costs sources×targets); excess gets 429 + Retry-After (0 = unlimited)")
		hotCache = flag.Int("hot-cache", 4096, "registry hot-pair result cache capacity in rows; /dist serves stale rows across hot reloads while the new engine warms (0 = off)")
		shardTgt = flag.Int64("shard-target-bytes", 0, "serve graphs sharded, with the shard count derived from this per-shard engine memory target (0 = monolithic)")
		routeMan = flag.String("route-manifest", "", "shard manifest (<name>.shards.json) to serve as a distributed scatter-gather router: per-shard engines live in shardserve workers named by -placement or -shard-peers; no shard payloads load locally")
		peers    = flag.String("shard-peers", "", "comma-separated shardserve worker base URLs for -route-manifest; every shard is placed on every peer (replicas)")
		placeFl  = flag.String("placement", "", "JSON placement file mapping each shard of -route-manifest to its replica endpoints (overrides -shard-peers)")
		hedge    = flag.Duration("hedge", 0, "fixed hedge delay before a routed query is retried on a second replica (0 = adaptive, per-endpoint p99)")
		dbgAddr  = flag.String("debug-addr", "", "separate listen address for /debug/pprof and /debug/vars (empty = off)")
		logLevel = flag.String("log-level", "info", "log verbosity: debug, info, warn, error")
		logFmt   = flag.String("log-format", "json", "log output format: json (structured events) or text")
		auditFr  = flag.Float64("audit-sample", 0.01, "fraction of served answers shadow-audited against exact Dijkstra in the background (0 = off, 1 = every answer)")
		auditWk  = flag.Int("audit-workers", 2, "background audit worker pool size")
		sloLat   = flag.Duration("slo-latency", 250*time.Millisecond, "SLO latency target: queries slower than this consume the latency error budget")
	)
	flag.Parse()

	logger, err := obs.SetupLogger("serve", *logLevel, *logFmt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(2)
	}

	// Correctness observability: the SLO burn-rate engine watches every
	// query-route response (via the obs middleware) and every shadow-audit
	// verdict; the auditor samples served answers and recomputes them
	// exactly on the engine version that produced them.
	obj := obs.DefaultObjective()
	obj.LatencyTarget = *sloLat
	slo := obs.NewSLO(obj, logger)
	auditor := audit.New(audit.Config{
		SampleRate: *auditFr,
		Workers:    *auditWk,
		Logger:     logger,
		OnResult:   func(res audit.Result) { slo.ObserveAudit(res.Graph, res.Violation != "") },
	})
	defer auditor.Close()

	reg := oracle.NewRegistry(oracle.RegistryConfig{
		BuildWorkers: *workers,
		MemoryBudget: *budget,
		HotPairCache: *hotCache,
		Audit:        auditor,
		EngineOptions: []oracle.Option{
			oracle.WithDistCache(*cache),
			oracle.WithBatchWindow(*batch),
		},
	})
	defer reg.Close()

	var names []string
	add := func(name string, src oracle.EngineSource) {
		if err := reg.Add(name, src); err != nil {
			fatal("registering graph", err)
		}
		names = append(names, name)
	}

	if *snapDir != "" {
		loaded, err := addSnapshotDir(reg, *snapDir)
		if err != nil {
			fatal("loading snapshot directory", err)
		}
		names = append(names, loaded...)
	}
	if *graphDir != "" {
		loaded, err := addGraphDir(reg, *graphDir, *eps, *paths, *shardTgt)
		if err != nil {
			fatal("loading graph directory", err)
		}
		names = append(names, loaded...)
	}
	var tracePeers []string
	if *routeMan != "" {
		peerList := splitPeers(*peers)
		if *placeFl == "" && len(peerList) == 0 {
			fatal("-route-manifest needs -placement or -shard-peers", nil)
		}
		tracePeers = workerEndpoints(*placeFl, peerList)
		man, err := graphio.LoadShardManifest(*routeMan)
		if err != nil {
			fatal("loading shard manifest", err)
		}
		rcfg := shard.RouterConfig{
			Config:     shardConfig(*eps, *paths, 0),
			HedgeDelay: *hedge,
		}
		add(man.Name, shard.RouterSource(*routeMan, *placeFl, peerList, rcfg))
		slog.Info("routing sharded graph",
			slog.String("graph", man.Name),
			slog.Int("shards", man.K),
			slog.String("placement", routeDesc(*placeFl, peerList)))
	}

	// defaultSource picks the backend shape for an in-memory graph: one
	// monolithic engine, or — under -shard-target-bytes — a sharded
	// oracle whose K is derived from the target.
	defaultSource := func(g *graph.Graph) oracle.EngineSource {
		if *shardTgt > 0 {
			return shard.Source(g, shardConfig(*eps, *paths, *shardTgt))
		}
		return oracle.GraphSource(g, buildOpts(*eps, *paths)...)
	}

	switch {
	case *snap != "":
		add("default", oracle.SnapshotSource(*snap))
	case *in != "":
		// Eager load: a missing or malformed -in file aborts startup
		// (fail-fast), while the hopset build still runs in the background.
		g, format, err := graphio.LoadFile(*in)
		if err != nil {
			fatal("loading input graph", err)
		}
		slog.Info("graph loaded",
			slog.String("file", *in), slog.String("format", format.String()),
			slog.Int("n", g.N), slog.Int("m", g.M()))
		add("default", defaultSource(g))
	case *snapDir == "" && *graphDir == "" && *routeMan == "":
		g := graph.Gnm(*n, *m, graph.UniformWeights(1, 8), *seed)
		add("default", defaultSource(g))
	}

	// Builds run off the request path: serve immediately, log readiness as
	// each graph lands, and persist the default engine once it is up.
	for _, name := range names {
		go func(name string) {
			start := time.Now()
			if err := reg.WaitReady(context.Background(), name); err != nil {
				slog.Error("graph build failed",
					slog.String("graph", name), slog.String("error", err.Error()))
				return
			}
			gi, err := reg.Info(name)
			if err != nil {
				return
			}
			slog.Info("graph ready",
				slog.String("graph", name),
				slog.Duration("build", time.Since(start).Round(time.Millisecond)),
				slog.Int("n", gi.N),
				slog.Int("hopset_edges", gi.HopsetEdges),
				slog.Int64("memory_mib", gi.MemoryBytes>>20))
			if name == "default" && *save != "" {
				if err := saveSnapshot(reg, *save); err != nil {
					slog.Error("save-snapshot failed", slog.String("error", err.Error()))
				} else {
					slog.Info("snapshot written", slog.String("file", *save))
				}
			}
		}(name)
	}

	// Observability stack: tracer + Prometheus registry + HTTP metrics.
	// The obs middleware is outermost so even 429-refused requests are
	// counted and traced; the admission gate sits just inside it.
	lim := admission.New(*inflight)
	tr := obs.NewTracer("serve", obs.TracerOptions{Logger: logger})
	httpm := obs.NewHTTPMetrics()
	prom := obs.NewRegistry()
	prom.Register(oracle.MetricsCollector(reg))
	prom.Register(httpm.Collect)
	prom.Register(obs.TracerCollector(tr))
	prom.Register(lim.Collect)
	prom.Register(auditor.Collect)
	prom.Register(slo.Collect)
	if *dbgAddr != "" {
		da, err := obs.ListenDebug(*dbgAddr)
		if err != nil {
			fatal("debug listener", err)
		}
		slog.Info("debug listening", slog.String("addr", da))
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal("listen", err)
	}
	srv := &http.Server{Handler: obs.Middleware(tr, httpm, slo, admission.Middleware(newMux(reg, lim, prom, tr, slo, auditor, tracePeers), lim))}
	slog.Info("listening",
		slog.String("addr", ln.Addr().String()),
		slog.Int("graphs", len(names)),
		slog.Float64("audit_sample", *auditFr))
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if err := runServer(ctx, srv, ln, reg, *drain); err != nil {
		fatal("server", err)
	}
	slog.Info("shut down cleanly")
}

// newMux mounts the registry handler and the observability endpoints
// (/metrics, /slo, /trace/{id}).
func newMux(reg *oracle.Registry, lim *admission.Limiter, prom *obs.Registry, tr *obs.Tracer, slo *obs.SLO, auditor *audit.Auditor, tracePeers []string) http.Handler {
	rh := oracle.NewRegistryHandler(reg)
	mux := http.NewServeMux()
	mux.Handle("/graphs", rh)
	mux.Handle("/graphs/", rh)
	mux.Handle("/healthz", rh)
	mux.Handle("/stats", rh)
	// GET /stats is overridden with the merged registry + admission view;
	// other methods still fall through to the registry handler.
	mux.HandleFunc("GET /stats", statsHandler(reg, lim, auditor))
	mux.Handle("/metrics", prom.Handler())
	mux.Handle("/slo", slo.Handler())
	// When routing shards to worker processes, /trace/{id} fans out to
	// every worker and merges their spans into one cross-process tree.
	var peersFn func() []string
	if len(tracePeers) > 0 {
		peersFn = func() []string { return tracePeers }
	}
	mux.Handle("/trace/", obs.TraceHandler(tr, nil, peersFn))
	return mux
}

// statsResponse merges the registry's aggregate stats with the admission
// limiter's and the shadow auditor's — the JSON twin of what /metrics
// exports, so the two surfaces read from the same snapshots and cannot
// drift.
type statsResponse struct {
	oracle.RegistryStats
	Admission admission.Stats `json:"admission"`
	Audit     *audit.Stats    `json:"audit,omitempty"`
}

// statsHandler serves the merged GET /stats.
func statsHandler(reg *oracle.Registry, lim *admission.Limiter, auditor *audit.Auditor) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		resp := statsResponse{RegistryStats: reg.Stats(), Admission: lim.Stats()}
		if auditor != nil {
			st := auditor.Stats()
			resp.Audit = &st
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(resp)
	}
}

// workerEndpoints lists the distinct worker base URLs /trace/{id} fans
// out to when assembling a cross-process trace: every replica endpoint
// of the placement, or the -shard-peers list.
func workerEndpoints(placement string, peers []string) []string {
	if placement == "" {
		return peers
	}
	pl, err := shard.LoadPlacement(placement)
	if err != nil {
		// NewRouter will surface the same error as a build failure; the
		// trace endpoint just has no peers to ask until then.
		return nil
	}
	seen := make(map[string]bool)
	var out []string
	for _, sp := range pl.Shards {
		for _, rep := range sp.Replicas {
			if !seen[rep] {
				seen[rep] = true
				out = append(out, rep)
			}
		}
	}
	return out
}

// runServer serves on ln until ctx is canceled (SIGINT/SIGTERM in main),
// then shuts down gracefully: stop accepting, drain in-flight requests
// for up to drain, close the registry (cancels builds, retires engines
// once in-flight queries release their handles).
func runServer(ctx context.Context, srv *http.Server, ln net.Listener, reg *oracle.Registry, drain time.Duration) error {
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err // listener died before any signal
	case <-ctx.Done():
	}
	slog.Info("signal received, draining", slog.Duration("bound", drain))
	sctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	err := srv.Shutdown(sctx)
	reg.Close()
	if errors.Is(err, context.DeadlineExceeded) {
		return fmt.Errorf("drain deadline exceeded after %v", drain)
	}
	return err
}

// addSnapshotDir registers every <name>.snap in dir on the registry under
// its file name and returns the names. Builds (snapshot loads) run in the
// background; callers follow readiness per graph.
func addSnapshotDir(reg *oracle.Registry, dir string) ([]string, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "*.snap"))
	if err != nil {
		return nil, err
	}
	if len(matches) == 0 {
		return nil, fmt.Errorf("no *.snap files in %s", dir)
	}
	var names []string
	for _, path := range matches {
		name := strings.TrimSuffix(filepath.Base(path), ".snap")
		if err := reg.Add(name, oracle.SnapshotSource(path)); err != nil {
			return nil, err
		}
		names = append(names, name)
	}
	return names, nil
}

// addGraphDir registers every supported dataset in dir under its base
// name (extensions stripped, including .gz): raw graph files in any
// graphio format, plus `<name>.shards.json` sharded container sets
// written by graphconv -partition. Raw graphs build through
// oracle.FileSource (or shard.FileSource when shardTarget > 0, which
// partitions them in memory); manifests always open sharded. Collision
// precedence for one name: sharded manifest > .csrg container > first
// file lexicographically, each shadow logged. Registration runs in
// sorted name order, so build scheduling, logs, and the /graphs listing
// are deterministic across runs (map iteration order used to leak here).
func addGraphDir(reg *oracle.Registry, dir string, eps float64, paths bool, shardTarget int64) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, ent := range entries {
		if ent.IsDir() {
			continue
		}
		// Shard containers (<name>.shard<i>.csrg) belong to their
		// manifest; registering them individually would duplicate every
		// shard as a standalone graph.
		if shardContainerRE.MatchString(ent.Name()) {
			continue
		}
		if graphio.SupportedPath(ent.Name()) || graphio.IsShardManifestPath(ent.Name()) {
			files = append(files, ent.Name())
		}
	}
	sort.Strings(files)
	chosen := map[string]string{} // name → file
	for _, file := range files {
		name := graphName(file)
		prev, dup := chosen[name]
		switch {
		case !dup:
			chosen[name] = file
		case graphio.IsShardManifestPath(file) && !graphio.IsShardManifestPath(prev):
			slog.Info("graph-dir shadowing", slog.String("chosen", file), slog.String("shadowed", prev), slog.String("reason", "sharded manifest preferred"))
			chosen[name] = file
		case graphio.IsShardManifestPath(prev):
			slog.Info("graph-dir skipping file", slog.String("file", file), slog.String("name", name), slog.String("taken_by", prev))
		case graphio.FormatForPath(file) == graphio.FormatCSRG &&
			graphio.FormatForPath(prev) != graphio.FormatCSRG:
			slog.Info("graph-dir shadowing", slog.String("chosen", file), slog.String("shadowed", prev), slog.String("reason", "container preferred"))
			chosen[name] = file
		default:
			slog.Info("graph-dir skipping file", slog.String("file", file), slog.String("name", name), slog.String("taken_by", prev))
		}
	}
	names := make([]string, 0, len(chosen))
	for name := range chosen {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		file := chosen[name]
		path := filepath.Join(dir, file)
		var src oracle.EngineSource
		switch {
		case graphio.IsShardManifestPath(file), shardTarget > 0:
			src = shard.FileSource(path, shardConfig(eps, paths, shardTarget))
		default:
			src = oracle.FileSource(path, buildOpts(eps, paths)...)
		}
		if err := reg.Add(name, src); err != nil {
			return nil, fmt.Errorf("register %s: %w", file, err)
		}
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("no supported graph files in %s", dir)
	}
	return names, nil
}

// shardContainerRE matches per-shard container files written by
// graphio.WriteShards.
var shardContainerRE = regexp.MustCompile(`\.shard\d+\.csrg$`)

// graphName strips the format extensions off a dataset file name
// (including the sharded-manifest suffix).
func graphName(base string) string {
	if graphio.IsShardManifestPath(base) {
		return graphio.ShardManifestName(base)
	}
	base = strings.TrimSuffix(base, ".gz")
	return strings.TrimSuffix(base, filepath.Ext(base))
}

// splitPeers parses the comma-separated -shard-peers list.
func splitPeers(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// routeDesc renders the placement choice for the startup log line.
func routeDesc(placement string, peers []string) string {
	if placement != "" {
		return placement
	}
	return fmt.Sprintf("%d peers, every shard on every peer", len(peers))
}

// shardConfig maps the serve flags onto a shard build configuration.
func shardConfig(eps float64, paths bool, targetBytes int64) shard.Config {
	return shard.Config{
		TargetBytes:   targetBytes,
		EpsilonLocal:  eps,
		PathReporting: paths,
	}
}

// saveSnapshot persists the current default engine through a refcounted
// handle, so a concurrent reload cannot swap it mid-write.
func saveSnapshot(reg *oracle.Registry, path string) error {
	h, err := reg.Acquire("default")
	if err != nil {
		return err
	}
	defer h.Release()
	eng, ok := h.Engine().(*oracle.Engine)
	if !ok {
		return errors.New("default graph is not a snapshottable monolithic engine")
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := eng.SaveSnapshot(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func buildOpts(eps float64, paths bool) []oracle.Option {
	opts := []oracle.Option{oracle.WithEpsilon(eps)}
	if paths {
		opts = append(opts, oracle.WithPathReporting())
	}
	return opts
}

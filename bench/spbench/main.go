// Command spbench is the serve benchmark: it drives a freshly built
// cmd/serve child process over loopback HTTP with a seeded workload,
// checks a sample of the answers against exact Dijkstra, and prints every
// metric as "name value unit", then one JSON result line.
//
//	spbench -workload road-hot -seed 1 -seconds 15 -trace 0
//	spbench -workload all -seed 1 -out runs/a1.json
//	spbench -workload social-mixed -seed 1 -trace 1
//	spbench compare -a 'runs/a*.json' -b 'runs/b*.json'
//
// Run it through run.sh from the repository root, or with go run from
// this directory with -root ../.. . With -trace 1 the run also replays the
// same stream against an in-process copy of cmd/serve's handler chain
// with spans around each layer, times the kernels on 32 workload sources,
// and reports the per-layer metrics instead of the end-to-end ones.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

func main() {
	root := flag.String("root", ".", "repository root: cmd/serve is built from here and BENCHMARK.json read from here")
	name := flag.String("workload", "all", "workload to run, or all")
	seed := flag.Int64("seed", 1, "seed of the graph and the request stream")
	seconds := flag.Int("seconds", 15, "measured seconds per run, split between the open-loop and the closed-loop window")
	trace := flag.Int("trace", 0, "1: also run the traced replay and kernel pass and report the per-layer metrics")
	out := flag.String("out", "", "write the full report as JSON here (traced runs also write <out>.<workload>.spans.json)")
	flag.Parse()

	if flag.NArg() > 0 && flag.Arg(0) == "compare" {
		if err := compareMain(*root, flag.Args()[1:]); err != nil {
			fmt.Fprintln(os.Stderr, "spbench compare:", err)
			os.Exit(1)
		}
		return
	}
	if flag.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	ws := workloads
	if *name != "all" {
		w, err := workloadByName(*name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "spbench:", err)
			os.Exit(2)
		}
		ws = []*workload{w}
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	code, err := run(ctx, *root, ws, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "spbench:", err)
		os.Exit(1)
	}
	os.Exit(code)
}

// run executes the workloads and prints the report; the exit code is 1
// when the verifier rejected any answer.
func run(ctx context.Context, root string, ws []*workload, seed int64, seconds time.Duration, trace bool, out string) (int, error) {
	work := filepath.Join(root, ".bench_build", "spbench")
	if err := os.MkdirAll(work, 0o755); err != nil {
		return 0, err
	}
	serve, err := buildServe(root, work)
	if err != nil {
		return 0, err
	}
	logf("built %s", serve)
	spans := filepath.Join(work, "run")
	if out != "" {
		spans = out
	}
	c := runConfig{seed: seed, seconds: seconds, trace: trace, work: work, serve: serve, spans: spans}
	var reps []*report
	for _, w := range ws {
		rep, err := runWorkload(ctx, c, w)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", w.name, err)
		}
		printReport(rep)
		reps = append(reps, rep)
	}
	if out != "" {
		b, err := json.MarshalIndent(reps, "", "  ")
		if err != nil {
			return 0, err
		}
		if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
			return 0, err
		}
	}
	return printResult(reps, trace), nil
}

func printReport(rep *report) {
	fmt.Printf("workload %s seed %d stream_hash %s stream_len %d\n", rep.Workload, rep.Seed, rep.StreamHash, rep.StreamLen)
	for _, m := range []metrics{rep.EndToEnd, rep.Layers, rep.Diag} {
		names := make([]string, 0, len(m))
		for k := range m {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			fmt.Printf("%s %s %s\n", k, formatValue(m[k].Value), m[k].Unit)
		}
	}
	for _, v := range rep.Violations {
		fmt.Fprintln(os.Stderr, "VIOLATION", rep.Workload+":", v)
	}
	if lag := rep.Layers["loadgen.lag_p99_ms"].Value; lag > 5 {
		fmt.Fprintf(os.Stderr, "warning: %s: load generator ran %.1f ms late at p99; latencies of this run are suspect\n", rep.Workload, lag)
	}
}

func formatValue(v float64) string { return fmt.Sprintf("%.6g", v) }

// printResult prints the final JSON line: the end-to-end metrics, or with
// trace the per-layer ones. With several workloads each name is prefixed
// by its workload.
func printResult(reps []*report, trace bool) int {
	res := struct {
		Correct   bool    `json:"correct"`
		Attempted int     `json:"attempted"`
		Failed    int     `json:"failed"`
		Metrics   metrics `json:"metrics"`
	}{Correct: true, Metrics: metrics{}}
	for _, rep := range reps {
		res.Attempted += rep.Attempted
		res.Failed += rep.Failed
		if len(rep.Violations) > 0 {
			res.Correct = false
		}
		m := rep.EndToEnd
		if trace {
			m = rep.Layers
		}
		for k, v := range m {
			if len(reps) > 1 {
				k = rep.Workload + "." + k
			}
			res.Metrics[k] = v
		}
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "spbench:", err)
		return 1
	}
	fmt.Println(string(b))
	if !res.Correct {
		return 1
	}
	return 0
}

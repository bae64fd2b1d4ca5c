package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"text/tabwriter"
)

// benchSpec is the part of BENCHMARK.json compare needs.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(root string) (*benchSpec, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// loadRuns reads the reports of every file matching glob, in file name
// order, grouped by workload.
func loadRuns(glob string) (map[string][]*report, error) {
	files, err := filepath.Glob(glob)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no files match %q", glob)
	}
	sort.Strings(files)
	out := map[string][]*report{}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var reps []*report
		if err := json.Unmarshal(b, &reps); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		for _, r := range reps {
			out[r.Workload] = append(out[r.Workload], r)
		}
	}
	return out, nil
}

// minPairs is the fewest alternating pairs a gain may be claimed on: with
// five, one of the 16 workload × metric pairs reads "improved" by chance
// about a third of the time.
const minPairs = 10

// Verdicts of one workload × metric comparison.
const (
	verdictImproved   = "improved"
	verdictUnchanged  = "unchanged"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// verdict compares side b against side a (the parent). a[i] and b[i] are
// the i-th runs of each side, made in alternating order. The rules:
//
//   - improved: over at least minPairs pairs, b wins at least 9 in 10
//     (ties count for neither) and the medians differ by more than a's
//     interquartile range;
//   - worse: b's median is worse than a's by more than the bound;
//   - unresolved: otherwise, when either side's interquartile spread is
//     wider than the bound, unless every b run beats every a run;
//   - unchanged: otherwise.
func verdict(a, b []float64, higherBetter bool, bound float64) string {
	better := func(x, y float64) bool {
		if higherBetter {
			return x > y
		}
		return x < y
	}
	wins, pairs := 0, min(len(a), len(b))
	for i := 0; i < pairs; i++ {
		if better(b[i], a[i]) {
			wins++
		}
	}
	qa, qb := quartiles(a), quartiles(b)
	delta := (qb[1] - qa[1]) / qa[1]
	if higherBetter {
		delta = -delta
	}
	switch {
	case pairs >= minPairs && wins*10 >= 9*pairs && better(qb[1], qa[1]) && math.Abs(qb[1]-qa[1]) > qa[2]-qa[0]:
		return verdictImproved
	case delta > bound:
		return verdictWorse
	}
	spread := max((qa[2]-qa[0])/qa[1], (qb[2]-qb[0])/qb[1])
	if spread > bound && !allBetter(b, a, better) {
		return verdictUnresolved
	}
	return verdictUnchanged
}

func allBetter(b, a []float64, better func(x, y float64) bool) bool {
	for _, x := range b {
		for _, y := range a {
			if !better(x, y) {
				return false
			}
		}
	}
	return true
}

// quartiles returns Q1, the median and Q3 exactly as Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method).
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}

func compareMain(root string, args []string) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	ga := fs.String("a", "", "glob of the parent's report files (-out of spbench)")
	gb := fs.String("b", "", "glob of the change's report files")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *ga == "" || *gb == "" {
		return errors.New("need -a and -b")
	}
	spec, err := loadSpec(root)
	if err != nil {
		return err
	}
	ra, err := loadRuns(*ga)
	if err != nil {
		return err
	}
	rb, err := loadRuns(*gb)
	if err != nil {
		return err
	}
	names := make([]string, 0, len(ra))
	for w := range ra {
		names = append(names, w)
	}
	sort.Strings(names)
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\ta q1\ta median\ta q3\tb q1\tb median\tb q3\tdelta\tbound\tverdict")
	worse := 0
	for _, w := range names {
		if len(rb[w]) == 0 {
			continue
		}
		if ha, hb := ra[w][0].StreamHash, rb[w][0].StreamHash; ha != hb {
			fmt.Fprintf(os.Stderr, "warning: %s: the sides replayed different streams (%s vs %s)\n", w, ha, hb)
		}
		for _, m := range spec.EndToEnd {
			va, vb := values(ra[w], m.Name), values(rb[w], m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			qa, qb := quartiles(va), quartiles(vb)
			v := verdict(va, vb, m.Better == "higher", m.Bound)
			if v == verdictWorse {
				worse++
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g\t%.4g\t%.4g\t%.4g\t%.4g\t%.4g\t%+.1f%%\t%.0f%%\t%s\n",
				w, m.Name, qa[0], qa[1], qa[2], qb[0], qb[1], qb[2], 100*(qb[1]-qa[1])/qa[1], 100*m.Bound, v)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if worse > 0 {
		return fmt.Errorf("%d workload × metric pairs got worse", worse)
	}
	return nil
}

func values(reps []*report, name string) []float64 {
	var out []float64
	for _, r := range reps {
		if m, ok := r.EndToEnd[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

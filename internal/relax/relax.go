// Package relax is the deterministic relaxation engine every query-time
// exploration in this repository runs on: synchronous Bellman–Ford rounds
// over a G ∪ H adjacency (§3.4) with (distance, parent vertex, arc index)
// tie-breaking, so the labels — including the shortest-path forest — are
// schedule-independent.
//
// Two kernels compute bit-identical labels:
//
//   - the dense kernel rescans every vertex and every arc each round
//     (O(n+m) per round — the reference semantics);
//   - the frontier-sparse kernel rescans only N(F), the out-neighborhoods
//     of the vertices F whose label changed in the previous round.
//
// The frontier invariant that makes them interchangeable: a vertex's next
// label is fold(own label, {(Dist[u]+w, u, arc) : arc u→v}), where fold is
// the lexicographic minimum over (distance, parent, arc). fold is
// idempotent — folding an already-folded label against unchanged
// candidates returns it — so a label can change in round r+1 only if an
// in-neighbor's label changed in round r. Rescanning exactly N(F_r)
// therefore reproduces the dense round bit for bit.
//
// Each Exploration picks per round between the kernels
// (direction-optimizing, after Beamer et al.): when the frontier's arc
// count exceeds DenseFraction·m the dense scan is cheaper than frontier
// bookkeeping; when the wave narrows — high-diameter graphs, the last
// rounds before convergence — the sparse kernel skips almost all of the
// graph. All frontier bitsets and worklists are pooled, per-round change
// detection uses per-chunk flags (no shared atomic written per vertex),
// and the pram.Tracker is charged only for arcs actually scanned.
package relax

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/adj"
	"repro/internal/par"
	"repro/internal/pram"
)

// ErrLengthMismatch reports a sources/offsets length disagreement in
// StartOffsets/RunOffsets. It is a typed error (not a panic) because the
// lengths come from query payloads in the sharded serving path — a
// malformed request must not kill the process.
var ErrLengthMismatch = errors.New("relax: sources and offsets lengths differ")

// DefaultDenseFraction is the frontier-arc fraction of m above which a
// round runs the dense full-scan kernel.
const DefaultDenseFraction = 0.25

// Options configures an exploration. The zero value selects the adaptive
// dense/sparse engine with default thresholds and no instrumentation.
type Options struct {
	// Tracker, when non-nil, is charged one depth unit per round and work
	// equal to the arcs actually scanned that round.
	Tracker *pram.Tracker
	// Counters, when non-nil, accumulates this exploration's Stats at
	// Finish (atomically — shared across concurrent queries).
	Counters *Counters
	// ForceDense runs every round on the dense full-scan kernel: the
	// reference semantics the property tests compare the sparse kernel
	// against.
	ForceDense bool
	// DenseFraction overrides DefaultDenseFraction. Values ≥ 1 keep every
	// round sparse; 0 selects the default.
	DenseFraction float64
}

// Stats describes the work one exploration actually performed.
type Stats struct {
	// ScannedArcs counts every arc the kernels traversed: m per dense
	// round; frontier marking plus scan-set relaxation per sparse round.
	ScannedArcs int64
	// DenseRounds and SparseRounds count rounds by kernel.
	DenseRounds  int64
	SparseRounds int64
	// BatchedSeeds is the number of source lanes this exploration carried:
	// 0 for the sequential kernels, 1..MaxBatch for an ExplorationBatch.
	// ScannedArcs of a batch is shared across all its lanes, so the
	// sequential-equivalent work is roughly ScannedArcs · BatchedSeeds.
	BatchedSeeds int64
}

// Result of one exploration.
type Result struct {
	// Dist[v] is the hop-bounded distance from the nearest source
	// (+Inf when unreached within the round budget).
	Dist []float64
	// Parent[v] is the predecessor on the discovered path (-1 at sources
	// and unreached vertices).
	Parent []int32
	// ParentArc[v] is the arc (index into the adjacency) connecting
	// Parent[v] to v, or -1. Its tag identifies graph vs hopset edges.
	ParentArc []int32
	// Rounds actually executed before convergence or the cap.
	Rounds int
	// Converged reports whether a fixed point was reached before the cap
	// (true ⇒ Dist is the exact unbounded distance in the explored graph).
	Converged bool
	// Stats is the scanned-arc/kernel accounting of this exploration.
	Stats Stats
}

// scratch holds the pooled per-exploration state: the dense double
// buffers, the sparse scan set and worklists, and the frontier lists.
// Result arrays are always freshly allocated — they escape to the caller
// (and into caches).
type scratch struct {
	// Dense kernel double buffers and per-vertex change flags.
	ndist   []float64
	nparent []int32
	nparc   []int32
	changed []bool
	// Sparse kernel scan set, worklist, and per-slot label buffers.
	scan  ScanSet
	work  []int32
	wdist []float64
	wpar  []int32
	warc  []int32
	wchg  []bool
	// Frontier: vertices whose label changed in the previous round.
	front []int32
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func (sc *scratch) grow(n int) {
	if cap(sc.ndist) < n {
		sc.ndist = make([]float64, n)
		sc.nparent = make([]int32, n)
		sc.nparc = make([]int32, n)
		sc.changed = make([]bool, n)
		sc.wdist = make([]float64, n)
		sc.wpar = make([]int32, n)
		sc.warc = make([]int32, n)
		sc.wchg = make([]bool, n)
	}
	sc.ndist = sc.ndist[:n]
	sc.nparent = sc.nparent[:n]
	sc.nparc = sc.nparc[:n]
	sc.changed = sc.changed[:n]
	sc.wdist = sc.wdist[:n]
	sc.wpar = sc.wpar[:n]
	sc.warc = sc.warc[:n]
	sc.wchg = sc.wchg[:n]
}

// Exploration is an in-progress relaxation: Start it, Step it one
// synchronous round at a time, and Finish it to detach the Result and
// return the pooled scratch. The stepping surface is the seam callers
// with per-round logic (hop-budget searches, future sharded backends)
// plug into; Run covers the common run-to-budget case.
type Exploration struct {
	a         *adj.Adj
	opts      Options
	denseFrac float64
	arcs      int64 // total directed arcs m
	res       *Result
	sc        *scratch
	// frontArcs is the summed degree of the current frontier — the
	// dense/sparse decision input and the marking cost of the next
	// sparse round.
	frontArcs int64
}

// StartOffsets is Start with a per-source initial label: source i begins
// at offsets[i] instead of 0. Semantically the exploration behaves as if a
// virtual super-source were attached to every source by an edge of weight
// offsets[i] — the primitive sharded routers need to continue a search
// into a shard with the cost already paid to reach its boundary. Sources
// with a +Inf offset are skipped entirely (an unreachable boundary vertex
// seeds nothing); a vertex listed twice keeps its smallest offset.
// Offset sources keep Parent = -1, like ordinary sources.
// StartOffsets returns ErrLengthMismatch when the two slices disagree in
// length — checked before any scratch is acquired, so the error path
// leaks nothing.
func StartOffsets(a *adj.Adj, sources []int32, offsets []float64, opts Options) (*Exploration, error) {
	if len(sources) != len(offsets) {
		return nil, fmt.Errorf("%w: %d sources, %d offsets", ErrLengthMismatch, len(sources), len(offsets))
	}
	e := begin(a, opts)
	res, sc := e.res, e.sc
	for i, s := range sources {
		off := offsets[i]
		if math.IsInf(off, 1) {
			continue
		}
		if math.IsInf(res.Dist[s], 1) {
			sc.front = append(sc.front, s)
			e.frontArcs += int64(a.Off[s+1] - a.Off[s])
		}
		if off < res.Dist[s] {
			res.Dist[s] = off
		}
	}
	return e, nil
}

// RunOffsets is Run with per-source initial labels (see StartOffsets).
func RunOffsets(a *adj.Adj, sources []int32, offsets []float64, maxRounds int, opts Options) (*Result, error) {
	e, err := StartOffsets(a, sources, offsets, opts)
	if err != nil {
		return nil, err
	}
	for e.res.Rounds < maxRounds {
		if !e.Step() {
			break
		}
	}
	return e.Finish(), nil
}

// Start initializes an exploration from the given sources. The adjacency
// is only read; concurrent explorations over a shared adjacency are safe.
func Start(a *adj.Adj, sources []int32, opts Options) *Exploration {
	e := begin(a, opts)
	// The sources are the initial frontier: their labels "changed" at
	// initialization, so round 1 needs to rescan exactly their
	// neighborhoods.
	for _, s := range sources {
		e.res.Dist[s] = 0
		e.sc.front = append(e.sc.front, s)
		e.frontArcs += int64(a.Off[s+1] - a.Off[s])
	}
	return e
}

// begin allocates the result arrays and pooled scratch of an exploration
// with an empty frontier; Start/StartOffsets seed it.
func begin(a *adj.Adj, opts Options) *Exploration {
	n := a.N
	res := &Result{
		Dist:      make([]float64, n),
		Parent:    make([]int32, n),
		ParentArc: make([]int32, n),
	}
	for v := 0; v < n; v++ {
		res.Dist[v] = math.Inf(1)
		res.Parent[v] = -1
		res.ParentArc[v] = -1
	}
	sc := scratchPool.Get().(*scratch)
	sc.grow(n)
	e := &Exploration{
		a:         a,
		opts:      opts,
		denseFrac: opts.DenseFraction,
		arcs:      int64(a.Arcs()),
		res:       res,
		sc:        sc,
	}
	if e.denseFrac <= 0 {
		e.denseFrac = DefaultDenseFraction
	}
	sc.front = sc.front[:0]
	return e
}

// Dist exposes the current labels, read-only. The returned slice is only
// valid until the next Step: dense rounds commit by swapping the label
// arrays with pooled scratch, so callers with per-round logic must
// re-fetch it after every Step (Finish detaches the final arrays into
// the Result, which is safe to hold).
func (e *Exploration) Dist() []float64 { return e.res.Dist }

// Rounds returns the number of rounds executed so far.
func (e *Exploration) Rounds() int { return e.res.Rounds }

// Step executes one synchronous relaxation round and reports whether any
// label changed. A false return means a fixed point: further rounds
// cannot change anything, and Result.Converged is set.
func (e *Exploration) Step() bool {
	var changed bool
	var scanned int64
	if e.opts.ForceDense || float64(e.frontArcs) > e.denseFrac*float64(e.arcs) {
		changed, scanned = e.denseRound()
		e.res.Stats.DenseRounds++
	} else {
		changed, scanned = e.sparseRound()
		e.res.Stats.SparseRounds++
	}
	e.res.Rounds++
	e.res.Stats.ScannedArcs += scanned
	e.opts.Tracker.Rounds(1, scanned)
	if !changed {
		e.res.Converged = true
	}
	return changed
}

// Finish releases the pooled scratch, publishes Stats to the configured
// Counters, and returns the Result. Idempotent; the Exploration must not
// be stepped afterwards.
func (e *Exploration) Finish() *Result {
	if e.sc != nil {
		scratchPool.Put(e.sc)
		e.sc = nil
		e.opts.Counters.Add(e.res.Stats)
	}
	return e.res
}

// Run executes up to maxRounds synchronous rounds from the given sources
// over a and returns the labels. Run is safe for concurrent use: a is
// only read, and all mutable state is freshly allocated or pooled per
// call.
func Run(a *adj.Adj, sources []int32, maxRounds int, opts Options) *Result {
	e := Start(a, sources, opts)
	for e.res.Rounds < maxRounds {
		if !e.Step() {
			break
		}
	}
	return e.Finish()
}

// denseRound rescans every vertex. Change detection is per-vertex flags
// folded by the (sequential, cheap) frontier rebuild — no shared atomic
// is written from the parallel loop.
func (e *Exploration) denseRound() (bool, int64) {
	a, res, sc := e.a, e.res, e.sc
	n := a.N
	dist, parent, parc := res.Dist, res.Parent, res.ParentArc
	ndist, nparent, nparc, chg := sc.ndist, sc.nparent, sc.nparc, sc.changed
	par.ForChunk(n, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			bd, bp, ba := dist[v], parent[v], parc[v]
			for arc := a.Off[v]; arc < a.Off[v+1]; arc++ {
				u := a.Nbr[arc]
				if d := dist[u] + a.Wt[arc]; d < bd || (d == bd && (u < bp || (u == bp && arc < ba))) {
					bd, bp, ba = d, u, arc
				}
			}
			ndist[v], nparent[v], nparc[v] = bd, bp, ba
			chg[v] = bd != dist[v] || bp != parent[v] || ba != parc[v]
		}
	})
	// Commit by swapping the label arrays with the scratch buffers; the
	// Result keeps whichever arrays hold the final labels.
	res.Dist, sc.ndist = ndist, dist
	res.Parent, sc.nparent = nparent, parent
	res.ParentArc, sc.nparc = nparc, parc
	front := sc.front[:0]
	var fa int64
	for v := 0; v < n; v++ {
		if chg[v] {
			front = append(front, int32(v))
			fa += int64(a.Off[v+1] - a.Off[v])
		}
	}
	sc.front = front
	e.frontArcs = fa
	return len(front) > 0, e.arcs
}

// sparseRound rescans only the neighborhoods of the current frontier.
func (e *Exploration) sparseRound() (bool, int64) {
	a, res, sc := e.a, e.res, e.sc
	markArcs := e.frontArcs
	sc.scan.Reset(a.N)
	sc.scan.MarkNeighbors(a, sc.front, false)
	work, scanArcs := sc.scan.Collect(a, sc.work[:0])
	sc.work = work
	dist, parent, parc := res.Dist, res.Parent, res.ParentArc
	wdist, wpar, warc, wchg := sc.wdist, sc.wpar, sc.warc, sc.wchg
	par.ForChunk(len(work), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			v := work[i]
			bd, bp, ba := dist[v], parent[v], parc[v]
			for arc := a.Off[v]; arc < a.Off[v+1]; arc++ {
				u := a.Nbr[arc]
				if d := dist[u] + a.Wt[arc]; d < bd || (d == bd && (u < bp || (u == bp && arc < ba))) {
					bd, bp, ba = d, u, arc
				}
			}
			wdist[i], wpar[i], warc[i] = bd, bp, ba
			wchg[i] = bd != dist[v] || bp != parent[v] || ba != parc[v]
		}
	})
	// Commit in place (the parallel phase above only read the labels) and
	// build the next frontier in worklist order — sorted, deterministic.
	front := sc.front[:0]
	var fa int64
	for i, v := range work {
		if wchg[i] {
			dist[v], parent[v], parc[v] = wdist[i], wpar[i], warc[i]
			front = append(front, v)
			fa += int64(a.Off[v+1] - a.Off[v])
		}
	}
	sc.front = front
	e.frontArcs = fa
	return len(front) > 0, markArcs + scanArcs
}

// PathTo returns the vertex path from the nearest source to v along parent
// pointers, or nil if v is unreached.
func (r *Result) PathTo(v int32) []int32 {
	if math.IsInf(r.Dist[v], 1) {
		return nil
	}
	var rev []int32
	for cur := v; cur >= 0; cur = r.Parent[cur] {
		rev = append(rev, cur)
		if len(rev) > len(r.Dist) {
			return nil // cycle guard: cannot happen with positive weights
		}
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// RoundsToApprox returns the smallest round budget r ≤ maxRounds such that
// the r-hop-bounded distances from the sources are within a (1+eps) factor
// of the reference distances ref for every vertex ref reaches, or −1 if
// maxRounds rounds do not suffice. It measures the empirical hopbound of a
// hopset (experiments E2/E11). The tracker, when non-nil, is charged the
// arcs the engine actually scanned — with the frontier-sparse kernel that
// is usually far below r·m.
func RoundsToApprox(a *adj.Adj, sources []int32, ref []float64, eps float64, maxRounds int, tr *pram.Tracker) int {
	e := Start(a, sources, Options{Tracker: tr})
	defer e.Finish()
	within := func() bool {
		dist := e.Dist()
		var bad atomic.Bool
		par.ForChunk(len(dist), func(lo, hi int) {
			good := true
			for v := lo; v < hi; v++ {
				if math.IsInf(ref[v], 1) {
					continue
				}
				if dist[v] > (1+eps)*ref[v]+1e-12 {
					good = false
					break
				}
			}
			if !good {
				bad.Store(true)
			}
		})
		return !bad.Load()
	}
	if within() {
		return 0
	}
	for round := 1; round <= maxRounds; round++ {
		changed := e.Step()
		if within() {
			return round
		}
		if !changed {
			return -1 // converged without reaching the target approximation
		}
	}
	return -1
}

package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"

	"repro/internal/graph"
	"repro/internal/testkit"
)

// Operation kinds of the request stream.
const (
	opDist   = iota // GET dist?source&target: one point-to-point distance
	opRow           // GET dist?source: the full distance row
	opPath          // GET path?from&to
	opMatrix        // POST matrix, matrixSide×matrixSide
	numOps
)

var opNames = [numOps]string{"dist", "row", "path", "matrix"}

const matrixSide = 8

// workload is one traffic mix over one generated graph. Everything a run
// sends is a pure function of (workload, seed): the graph and the request
// sequence. Open-loop arrivals are evenly spaced at rate: with Poisson
// arrivals the chance clustering of requests moved road-cold's p90 by 25%
// between seeds on a 2-core VM, against 9% with even spacing.
type workload struct {
	name  string
	why   string
	graph string // served graph name (the .csrg file's base name)
	// family generates the graph at about n vertices.
	family func(n int, seed int64) *graph.Graph
	n      int
	// mix is the cumulative probability of each op kind, indexed by op.
	mix [numOps]float64
	// zipf is the skew of source popularity; 0 means uniform sources.
	zipf float64
	// uniformDist draws the sources of point-to-point dist requests
	// uniformly even when zipf is set, so that they miss the caches.
	uniformDist bool
	// hotSet, when set, limits sources to that many vertices, whose rows
	// are computed in batches before the warmup, so the caches hold the
	// whole hot set before anything is measured.
	hotSet int
	// rate is the open-loop arrival rate in requests per second.
	rate float64
	// reloadEvery, when set, POSTs a reload of the graph at this interval
	// from the start of the closed-loop window, which then takes two
	// thirds of the run instead of one third.
	reloadEvery time.Duration
}

// workloads lists every workload in the order -workload all runs them.
// The rates were calibrated at the seed commit on a 2-core x86-64 VM.
var workloads = []*workload{
	{
		name:   "road-hot",
		why:    "64x64 grid, Zipf(1.2) sources over a 256-vertex hot set the caches hold: the cache, HTTP and JSON floor, where no kernel runs",
		graph:  "road",
		family: testkit.Grid,
		n:      64 * 64,
		mix:    mixOf(0.90, 0.10, 0, 0),
		zipf:   1.2,
		hotSet: 256,
		rate:   4000,
	},
	{
		name:   "road-cold",
		why:    "72x72 grid, uniform sources: 5184 sources exceed the hot-pair cache and engine LRU, so nearly every query runs the kernel",
		graph:  "road",
		family: testkit.Grid,
		n:      72 * 72,
		mix:    mixOf(1, 0, 0, 0),
		rate:   50,
	},
	{
		name:        "road-reload",
		why:         "road-hot traffic with a hot reload every 5s during the closed loop: rebuilds compete with queries for the cores while stale-while-revalidate serving runs",
		graph:       "road",
		family:      testkit.Grid,
		n:           64 * 64,
		mix:         mixOf(0.90, 0.10, 0, 0),
		zipf:        1.2,
		hotSet:      256,
		rate:        4000,
		reloadEvery: 5 * time.Second,
	},
	{
		name:        "social-mixed",
		why:         "8192-vertex power-law graph where the hopset adds little: uniform dist queries run the kernel; Zipf paths and 8x8 matrices exercise path trees, the tree cache and the batched kernel",
		graph:       "social",
		family:      testkit.Social,
		n:           8192,
		mix:         mixOf(0.60, 0, 0.25, 0.15),
		zipf:        1.2,
		uniformDist: true,
		rate:        200,
	},
}

// mixOf turns per-op shares into the cumulative table workload.mix holds.
func mixOf(shares ...float64) [numOps]float64 {
	var cum [numOps]float64
	acc := 0.0
	for i, s := range shares {
		acc += s
		cum[i] = acc
	}
	return cum
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// request is one element of the stream.
type request struct {
	op       int
	src, dst int32
	// sources and targets are the matrix operands (op == opMatrix).
	sources, targets []int32
	// ord numbers the requests of one op kind in stream order; it picks
	// the answers that are verified.
	ord int
}

// stream generates a workload's requests deterministically. It is not
// safe for concurrent use: the open-loop scheduler and the closed-loop
// clients draw from it under a lock.
type stream struct {
	w    *workload
	n    int
	rng  *rand.Rand
	zipf *rand.Zipf
	// perm maps Zipf ranks to vertices, so the hot vertices are spread
	// over the graph rather than clustered at the low ids.
	perm []int32
	ords [numOps]int
	buf  []byte
	h    [sha256.Size]byte
}

func newStream(w *workload, n int, seed int64) *stream {
	h := fnv.New64a()
	h.Write([]byte(w.name))
	s := &stream{w: w, n: n, rng: rand.New(rand.NewSource(seed ^ int64(h.Sum64())))}
	s.perm = make([]int32, n)
	for i, v := range s.rng.Perm(n) {
		s.perm[i] = int32(v)
	}
	if w.zipf > 1 {
		s.zipf = rand.NewZipf(s.rng, w.zipf, 1, uint64(s.universe()-1))
	}
	return s
}

// universe is the number of vertices sources are drawn from.
func (s *stream) universe() int {
	if s.w.hotSet > 0 && s.w.hotSet < s.n {
		return s.w.hotSet
	}
	return s.n
}

// hot returns the vertices sources are drawn from when the workload has a
// hot set, else nil.
func (s *stream) hot() []int32 {
	if s.universe() == s.n {
		return nil
	}
	return s.perm[:s.universe()]
}

func (s *stream) source() int32 {
	if s.zipf != nil {
		return s.perm[s.zipf.Uint64()]
	}
	return s.perm[s.rng.Intn(s.universe())]
}

func (s *stream) uniform() int32 { return int32(s.rng.Intn(s.n)) }

// next draws the next request and folds it into the stream hash.
func (s *stream) next() request {
	var r request
	u := s.rng.Float64()
	for r.op = 0; r.op < numOps-1 && u >= s.w.mix[r.op]; r.op++ {
	}
	switch r.op {
	case opMatrix:
		r.sources = make([]int32, matrixSide)
		r.targets = make([]int32, matrixSide)
		for i := range r.sources {
			r.sources[i] = s.source()
			r.targets[i] = s.uniform()
		}
	case opRow:
		r.src = s.source()
	case opDist:
		if s.w.uniformDist {
			r.src = s.uniform()
		} else {
			r.src = s.source()
		}
		r.dst = s.uniform()
	default:
		r.src, r.dst = s.source(), s.uniform()
	}
	r.ord = s.ords[r.op]
	s.ords[r.op]++
	s.fold(r)
	return r
}

// fold chains the request's encoding into the stream hash:
// h_i = SHA-256(h_{i-1} || encode(r_i)).
func (s *stream) fold(r request) {
	buf := s.buf[:0]
	buf = append(buf, s.h[:]...)
	buf = append(buf, byte(r.op))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(r.src))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(r.dst))
	for i := range r.sources {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(r.sources[i]))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(r.targets[i]))
	}
	s.buf = buf
	s.h = sha256.Sum256(buf)
}

// Hash identifies the requests drawn so far: two runs that report the
// same hash after the same number of requests sent identical streams.
func (s *stream) Hash() string { return hex.EncodeToString(s.h[:8]) }

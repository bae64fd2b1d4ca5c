package admission

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// MaxCostPeek bounds how much of a priced request body the admission
// layer reads to cost it; it matches the handlers' own MaxBytesReader
// cap, so any body the peek cannot fully read is one the handler will
// refuse anyway.
const MaxCostPeek = 1 << 20

// oversizeCost prices a body larger than MaxCostPeek: the largest S·T a
// MaxCostPeek-byte body could encode (a vertex id is at least two bytes —
// digit plus separator — so at most MaxCostPeek/2 ids, at worst split
// evenly between sources and targets). Underpricing is the failure mode
// that matters here: a truncated peek used to fail JSON decoding and fall
// through to unit cost, letting arbitrarily large (soon-to-be-413) bodies
// through an admission gate that thought they were scalar lookups. The
// limiter clamps this to its full capacity, so an oversized body briefly
// occupies the whole gate — conservative, and exactly as long as the
// handler takes to reject it.
const oversizeCost = int64(MaxCostPeek/4) * int64(MaxCostPeek/4)

// Middleware bounds in-flight query work on lim: engine-work routes are
// priced by RequestCost and refused with 429 + Retry-After when they do
// not fit (see the package comment for the cost model and the hint
// derivation). Status and listing routes are never limited. A nil limiter
// passes everything through untouched.
func Middleware(h http.Handler, lim *Limiter) http.Handler {
	if lim == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !IsQueryRoute(r.URL.Path) {
			h.ServeHTTP(w, r)
			return
		}
		cost := RequestCost(r)
		if !lim.TryAcquire(cost) {
			secs := int64(lim.RetryAfter(cost) / time.Second)
			w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
			http.Error(w, "query capacity exhausted (-max-inflight)", http.StatusTooManyRequests)
			return
		}
		defer lim.Release(cost)
		h.ServeHTTP(w, r)
	})
}

// RequestCost prices one admitted request in cost units — the engine work
// it buys. Point queries (/dist, /path, /tree) are 1 unit; a /multi of S
// sources is S units (S full distance vectors); a /matrix of S×T is S·T.
// /nearest is 1 unit regardless of fan-in: it runs one joint exploration.
// Bodied routes are peeked and the body restored for the handler; an
// unparseable or empty body prices at 1 and is rejected downstream with a
// 400 — pricing must never consume the body for good or invent cost out
// of garbage. A body larger than MaxCostPeek prices at the conservative
// oversizeCost (see above) instead of falling through to 1.
func RequestCost(r *http.Request) int64 {
	verb := queryVerb(r.URL.Path)
	if (verb != "matrix" && verb != "multi") || r.Body == nil {
		return 1
	}
	peek, err := io.ReadAll(io.LimitReader(r.Body, MaxCostPeek+1))
	if err != nil {
		r.Body.Close()
		r.Body = io.NopCloser(bytes.NewReader(peek))
		return 1
	}
	if len(peek) > MaxCostPeek {
		// Too big to price exactly; splice the peeked prefix back in front
		// of the unread remainder so the handler sees the original stream
		// (and its MaxBytesReader refuses it with the request's own size,
		// not the peek's).
		r.Body = restoredBody{io.MultiReader(bytes.NewReader(peek), r.Body), r.Body}
		return oversizeCost
	}
	r.Body.Close()
	r.Body = io.NopCloser(bytes.NewReader(peek))
	var req struct {
		Sources []int32 `json:"sources"`
		Targets []int32 `json:"targets"`
	}
	if json.Unmarshal(peek, &req) != nil {
		return 1
	}
	cost := int64(len(req.Sources))
	if verb == "matrix" {
		cost *= int64(len(req.Targets))
	}
	if cost < 1 {
		return 1
	}
	return cost
}

// restoredBody is an un-drained request body re-assembled from a peeked
// prefix and the original stream; Close closes the underlying body.
type restoredBody struct {
	io.Reader
	closer io.Closer
}

func (b restoredBody) Close() error { return b.closer.Close() }

// IsQueryRoute marks the engine-work routes the admission limiter guards:
// /graphs/{name}/dist and /path, the bodied many-to-many routes (/matrix,
// /multi, /nearest — an S×T matrix is the most engine work a single
// request can ask for, so it must sit under the same admission cap), plus
// /tree. A name segment is required between /graphs/ and the verb, so
// the status route of a graph that happens to be named "dist"
// (GET /graphs/dist) is never limited.
func IsQueryRoute(p string) bool {
	return queryVerb(p) != ""
}

// queryVerb extracts the query verb of a /graphs/{name}/{verb} path (""
// for status, listing, and malformed paths).
func queryVerb(p string) string {
	rest, ok := strings.CutPrefix(p, "/graphs/")
	if !ok {
		return ""
	}
	name, verb, ok := strings.Cut(rest, "/")
	if !ok || name == "" {
		return ""
	}
	switch verb {
	case "dist", "path", "matrix", "multi", "nearest", "tree":
		return verb
	}
	return ""
}

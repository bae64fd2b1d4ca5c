package oracle

import (
	"context"
	"fmt"

	"repro/internal/obs"
)

// SWRResult is one stale-while-revalidate answer: a full distance row,
// the engine version that produced it, and whether that version predates
// the graph's current one. Every value in one result comes from the one
// immutable engine identified by Version — versions are never mixed
// within a response, which is why SWR is offered only for single-source
// surfaces (a multi-source answer assembled from cached rows could
// otherwise straddle a reload).
type SWRResult struct {
	Dist    []float64
	Version int64
	Stale   bool
}

// DistSWR serves Engine.Dist through the hot-pair cache with
// stale-while-revalidate semantics:
//
//   - fresh hit — the cached row's version matches the graph's current
//     version: answered with two atomic loads and one striped map
//     lookup, no handle acquired, no registry or entry mutex taken;
//   - stale hit — the row predates the current version (a hot reload or
//     rebuild published a newer engine): the old row is served
//     immediately, tagged Stale, and a bounded background revalidation
//     recomputes it on the current engine so a subsequent query turns
//     fresh. While a graph is evicted or mid-rebuild, stale rows keep
//     answering — tail latency is bounded by the cache, not the build;
//   - miss — the row is computed synchronously through a pinned handle
//     (exactly Registry.Dist) and inserted at that handle's version.
//
// Callers that must never observe stale data should use Registry.Dist,
// whose semantics are unchanged. With the hot-pair cache disabled,
// DistSWR degrades to exactly that.
//
// Cancellation and the active trace span (if any) in ctx flow into
// context-aware backends, and the span — when one rides in ctx — is
// annotated with the cache disposition, serving version, and (for
// monolithic engines on the miss path) the scanned-arc cost of the
// exploration. The fresh-hit fast path adds no allocations.
func (r *Registry) DistSWR(ctx context.Context, name string, source int32) (SWRResult, error) {
	sp := obs.FromContext(ctx)
	if sp.Active() {
		sp.Source = int64(source)
	}
	if r.hot == nil {
		h, err := r.Acquire(name)
		if err != nil {
			return SWRResult{}, err
		}
		defer h.Release()
		d, err := r.backendDist(ctx, sp, h, source)
		if err != nil {
			return SWRResult{}, err
		}
		r.auditDist(ctx, name, h, source, d)
		return SWRResult{Dist: d, Version: h.Version()}, nil
	}

	e, err := r.lookup(name)
	if err != nil {
		return SWRResult{}, err
	}
	dist, ver, ok := r.hot.get(name, source)
	if ok {
		cur := e.curVer.Load()
		if ver == cur {
			r.hot.hits.Add(1)
			e.lastUsed.Store(r.clock.Add(1))
			e.queries.Add(1)
			r.queries.Add(1)
			if sp.Active() {
				sp.SWR = "fresh"
				sp.Version = ver
			}
			return SWRResult{Dist: dist, Version: ver}, nil
		}
		// The row predates the current version: serve it stale and warm
		// the current engine off the request path.
		r.hot.staleHits.Add(1)
		e.lastUsed.Store(r.clock.Add(1))
		e.queries.Add(1)
		r.queries.Add(1)
		r.spawnRevalidate(name, source)
		if sp.Active() {
			sp.SWR = "stale"
			sp.Version = ver
		}
		return SWRResult{Dist: dist, Version: ver, Stale: true}, nil
	}

	// Miss: compute through a pinned handle. If the graph is evicted the
	// Acquire both reports not-ready and enqueues the rebuild — but a
	// stale row for this source would have been served above, so a miss
	// during an outage is a genuinely-cold pair.
	r.hot.misses.Add(1)
	if sp.Active() {
		sp.SWR = "miss"
	}
	h, err := r.Acquire(name)
	if err != nil {
		return SWRResult{}, err
	}
	defer h.Release()
	d, err := r.backendDist(ctx, sp, h, source)
	if err != nil {
		return SWRResult{}, err
	}
	r.cacheRow(name, source, d, h)
	// Audit on the fill path only: cache hits re-serve bits that were
	// sampled when the row was computed, so re-auditing them would burn
	// exact recomputations on already-checked answers (stale hits are
	// instead accounted by the SLO stale-serve rate).
	r.auditDist(ctx, name, h, source, d)
	return SWRResult{Dist: d, Version: h.Version()}, nil
}

// backendDist runs one dist computation through a pinned handle,
// annotating an active span with the serving version and — for
// monolithic engines — the scanned-arc delta of the exploration. The
// delta is read from the engine's process-wide counter, so concurrent
// queries can inflate an individual span's value; it is a tracing
// attribute, not an accounting invariant.
func (r *Registry) backendDist(ctx context.Context, sp *obs.Span, h *Handle, source int32) ([]float64, error) {
	be := h.Engine()
	if !sp.Active() {
		return distVia(ctx, be, source)
	}
	sp.Version = h.Version()
	eng, _ := be.(*Engine)
	before := eng.scannedArcs()
	d, err := distVia(ctx, be, source)
	if eng != nil {
		sp.ScannedArcs += eng.scannedArcs() - before
	}
	sp.SetError(err)
	return d, err
}

// DistToSWR is DistSWR for a single (source, target) scalar; it shares
// rows — and therefore hits — with DistSWR.
func (r *Registry) DistToSWR(ctx context.Context, name string, source, target int32) (float64, int64, bool, error) {
	res, err := r.DistSWR(ctx, name, source)
	if err != nil {
		return 0, 0, false, err
	}
	if target < 0 || int(target) >= len(res.Dist) {
		return 0, 0, false, fmt.Errorf("%w: vertex %d not in [0,%d)", ErrVertexOutOfRange, target, len(res.Dist))
	}
	return res.Dist[target], res.Version, res.Stale, nil
}

// spawnRevalidate recomputes one row on the graph's current engine in
// the background: singleflight per key, bounded globally (maxReval), and
// registered with the registry's shutdown WaitGroup so Close drains
// revalidations exactly like builds. A not-ready graph ends the attempt
// — the Acquire already enqueued its rebuild, and the next stale hit
// retries.
func (r *Registry) spawnRevalidate(name string, source int32) {
	k := hotKey{name, source}
	if !r.hot.tryClaimReval(k) {
		return
	}
	r.buildMu.Lock()
	if r.noBuilds {
		r.buildMu.Unlock()
		r.hot.releaseReval(k)
		return
	}
	r.wg.Add(1)
	r.buildMu.Unlock()
	go func() {
		defer r.wg.Done()
		defer r.hot.releaseReval(k)
		h, err := r.Acquire(name)
		if err != nil {
			return
		}
		defer h.Release()
		d, err := h.Engine().Dist(source)
		if err != nil {
			return
		}
		r.cacheRow(name, source, d, h)
		r.hot.revalidations.Add(1)
	}()
}

// cacheRow inserts a row computed on h into the hot-pair cache while h is
// still the graph's resident engine. Eviction and Remove drop the engine
// and then purge the graph's rows; a computation that raced them must not
// put a row back, or it would answer as fresh with no rebuild enqueued to
// ever replace it.
func (r *Registry) cacheRow(name string, source int32, d []float64, h *Handle) {
	e, err := r.lookup(name)
	if err != nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.handle == h {
		r.hot.put(name, source, d, h.Version())
	}
}

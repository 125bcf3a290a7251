package transport

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/hex"

	"zaatar/internal/compiler"
	"zaatar/internal/obs"
	"zaatar/internal/obs/trace"
	"zaatar/internal/vc"
)

// cacheKey identifies a compiled program: the same source compiled for a
// different field or proved under a different backend is a different
// artifact (different constraint system, different precomputation). The
// backend is the session's negotiated backend name, resolved once in
// ServeConn and passed through — key derivation and entry build must agree
// by construction, not by deriving it twice.
type cacheKey struct {
	source  [sha256.Size]byte
	field   string
	backend string
}

func keyOf(h Hello, backend string) cacheKey {
	key := cacheKey{field: h.Field().Name(), backend: backend}
	if h.hashFirst() {
		// Hash-first hello: the client sent only the digest. validate
		// guarantees that when both fields are present they agree, so keying
		// on the hash is keying on the source.
		copy(key.source[:], h.SourceHash)
		return key
	}
	key.source = sha256.Sum256([]byte(h.Source))
	return key
}

// labelHash is the metric program_hash label for a key — identical to
// ProgramHash(source), but derivable when the source never crossed the
// wire.
func (k cacheKey) labelHash() string {
	return hex.EncodeToString(k.source[:])[:ProgramHashLen]
}

// cacheEntry is one cached program plus its prover-side precomputation.
// Entries are created open (ready unclosed) so that concurrent sessions for
// the same program wait for a single build instead of compiling in
// parallel; prog/pre/err are written exactly once, before ready closes.
type cacheEntry struct {
	ready chan struct{}
	prog  *compiler.Program
	pre   *vc.Precomputation
	err   error
}

// programCache is an LRU of compiled programs keyed by source hash + field
// + backend, shared by every session of a Service. The cached values are
// immutable (compiler.Program after compilation, vc.Precomputation by
// construction), so sessions use them concurrently without copying; this is
// what lets a repeat session skip compilation and QAP preprocessing
// entirely.
type programCache struct {
	max     int
	entries map[cacheKey]*list.Element // value: *lruItem
	order   *list.List                 // front = most recently used
	reg     *obs.Registry
}

type lruItem struct {
	key   cacheKey
	entry *cacheEntry
}

func newProgramCache(max int, reg *obs.Registry) *programCache {
	if max < 1 {
		max = 1
	}
	return &programCache{max: max, entries: make(map[cacheKey]*list.Element), order: list.New(), reg: reg}
}

// lookup returns the entry for key, and whether the caller is responsible
// for building it (miss). On a miss the open entry is already inserted, so
// every concurrent looker waits on the same build. The Service serializes
// calls with its own mutex.
func (c *programCache) lookup(key cacheKey) (*cacheEntry, bool) {
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		c.reg.Counter(MetricCacheHits).Inc()
		return el.Value.(*lruItem).entry, false
	}
	c.reg.Counter(MetricCacheMisses).Inc()
	e := &cacheEntry{ready: make(chan struct{})}
	c.entries[key] = c.order.PushFront(&lruItem{key: key, entry: e})
	for c.order.Len() > c.max {
		back := c.order.Back()
		c.order.Remove(back)
		delete(c.entries, back.Value.(*lruItem).key)
		c.reg.Counter(MetricCacheEvictions).Inc()
	}
	return e, true
}

// drop removes a failed entry so a later session can retry the build (a
// compile error may be transient only in tests, but keeping a poisoned
// entry pinned in the LRU helps nobody).
func (c *programCache) drop(key cacheKey, e *cacheEntry) {
	if el, ok := c.entries[key]; ok && el.Value.(*lruItem).entry == e {
		c.order.Remove(el)
		delete(c.entries, key)
	}
}

// finish resolves an entry without compiling — from a disk-store bundle, or
// with the error that kept the source from arriving — and closes ready.
// Exactly one of finish and build runs, by the lookup winner.
func (e *cacheEntry) finish(prog *compiler.Program, pre *vc.Precomputation, err error) {
	e.prog, e.pre, e.err = prog, pre, err
	close(e.ready)
}

// build compiles the program and its prover precomputation into e and
// closes ready. Only the lookup miss winner calls this, outside the
// Service's lock. The prover.compile span is emitted only here — a cache
// hit has no compile span in its trace, which is how callers observe the
// amortization.
func (e *cacheEntry) build(ctx context.Context, h Hello, backend string) {
	defer close(e.ready)
	compileTr := trace.Start(ctx, "prover.compile")
	e.prog, e.err = compiler.Compile(h.Field(), h.Source)
	compileTr.End()
	if e.err != nil {
		return
	}
	preTr := trace.Start(ctx, "prover.preprocess")
	e.pre, e.err = vc.PreprocessBackend(e.prog, backend)
	preTr.End()
}

// await blocks until the entry is built or ctx is cancelled.
func (e *cacheEntry) await(ctx context.Context) error {
	select {
	case <-e.ready:
		return e.err
	case <-ctx.Done():
		return ctx.Err()
	}
}

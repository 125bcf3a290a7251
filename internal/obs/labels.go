package obs

import (
	"sort"
	"sync"
)

// Labeled metrics: counter and histogram *vectors* keyed by small bounded
// label sets, so one metric name ("transport.batches") breaks out into one
// series per {backend, program_hash, ...} combination. The hot path —
// looking up a series whose label set already exists and bumping it —
// takes a read lock and zero allocations (enforced by
// TestLabeledLookupAllocs), so a labeled counter can sit inside the
// prover's batch loop.
//
// Cardinality is a denial-of-service surface: a client cycling program
// hashes must not be able to grow the registry without bound. Every vector
// caps its series count at maxSeries; insertions beyond the cap are folded
// into a shared overflow series and counted in the registry-wide
// "obs.series.dropped" counter, so the overflow is itself observable.

// maxLabels is the most label keys a vector may declare. Label sets are
// deliberately tiny: labels multiply series, and every key must have a
// bounded value domain (see docs/PROTOCOL.md §7.1 for the schema).
const maxLabels = 3

// maxSeries is the per-vector series cap.
const maxSeries = 1024

// MetricSeriesDropped counts label-set insertions refused by the per-vector
// series cap, registry-wide. The refused observations are not lost — they
// land in the vector's shared overflow series — but their labels are.
const MetricSeriesDropped = "obs.series.dropped"

// labelKey is a comparable fixed-arity label value tuple — the map key for
// a vector's series. Unused positions stay "".
type labelKey [maxLabels]string

// vecCore is the shared series table behind CounterVec and HistogramVec.
// A vector with no keys is an unlabeled metric: solo is its one series,
// created with the vector.
type vecCore[T any] struct {
	keys    []string
	limit   int
	dropped *Counter // the registry's obs.series.dropped
	newT    func() *T
	solo    *T

	mu       sync.RWMutex
	m        map[labelKey]*T
	overflow *T // lazily created when the cap is first hit
}

func (v *vecCore[T]) init(keys []string, dropped *Counter, newT func() *T) {
	v.keys, v.limit, v.dropped, v.newT, v.m = keys, maxSeries, dropped, newT, make(map[labelKey]*T)
	if len(keys) == 0 {
		v.solo = newT()
		v.m[labelKey{}] = v.solo
	}
}

// with returns the series for the given label values, creating it on first
// use. Lookup of an existing series is allocation-free; values beyond the
// vector's key arity are ignored, missing ones read as "".
func (v *vecCore[T]) with(values ...string) *T {
	if v.solo != nil {
		return v.solo
	}
	var k labelKey
	copy(k[:len(v.keys)], values)
	v.mu.RLock()
	t, ok := v.m[k]
	v.mu.RUnlock()
	if ok {
		return t
	}
	return v.grow(k)
}

func (v *vecCore[T]) grow(k labelKey) *T {
	v.mu.Lock()
	defer v.mu.Unlock()
	if t, ok := v.m[k]; ok {
		return t
	}
	if len(v.m) >= v.limit {
		// Past the cap: fold into the shared overflow series so the caller
		// still gets a live instrument, and make the drop itself visible.
		v.dropped.Inc()
		if v.overflow == nil {
			v.overflow = v.newT()
		}
		return v.overflow
	}
	t := v.newT()
	v.m[k] = t
	return t
}

// vecSeries is one rendered series: the label values plus the instrument.
type vecSeries[T any] struct {
	vals labelKey
	t    *T
}

// snapshot returns the live series sorted by label values (stable render
// order), with the overflow series — every label value "_overflow" —
// appended last when present.
func (v *vecCore[T]) snapshot() []vecSeries[T] {
	v.mu.RLock()
	out := make([]vecSeries[T], 0, len(v.m)+1)
	for k, t := range v.m {
		out = append(out, vecSeries[T]{vals: k, t: t})
	}
	overflow := v.overflow
	v.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return lessKey(out[i].vals, out[j].vals) })
	if overflow != nil {
		var k labelKey
		for i := range v.keys {
			k[i] = "_overflow"
		}
		out = append(out, vecSeries[T]{vals: k, t: overflow})
	}
	return out
}

func lessKey(a, b labelKey) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// Len reports how many distinct label sets the vector holds (excluding the
// overflow series).
func (v *vecCore[T]) Len() int {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return len(v.m)
}

// CounterVec is a family of counters sharing one name, keyed by label
// values. Obtain one from Registry.CounterVec; obtain series with With.
type CounterVec struct {
	vecCore[Counter]
}

// With returns the counter for the given label values (in the vector's
// declared key order), creating the series on first use. Looking up an
// existing series allocates nothing.
func (v *CounterVec) With(values ...string) *Counter { return v.with(values...) }

// Total sums the vector's series, overflow included — what sum() over the
// family reads in the scrape.
func (v *CounterVec) Total() int64 {
	var sum int64
	for _, s := range v.snapshot() {
		sum += s.t.Value()
	}
	return sum
}

// HistogramVec is a family of histograms sharing one name, keyed by label
// values. Obtain one from Registry.HistogramVec; obtain series with With.
type HistogramVec struct {
	vecCore[Histogram]
}

// With returns the histogram for the given label values (in the vector's
// declared key order), creating the series on first use. Looking up an
// existing series allocates nothing.
func (v *HistogramVec) With(values ...string) *Histogram { return v.with(values...) }

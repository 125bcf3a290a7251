package obs

import (
	"sort"
	"strings"
	"sync"
)

// Labeled metrics: counter and histogram *vectors* keyed by small bounded
// label sets, so one metric name ("transport.batches") breaks out into one
// series per {backend, program_hash, ...} combination. The design mirrors
// the unlabeled instruments' contract: the hot path — looking up a series
// whose label set already exists and bumping it — takes a read lock and
// zero allocations (enforced by TestLabeledLookupAllocs), so a labeled
// counter can sit inside the prover's batch loop.
//
// Cardinality is a denial-of-service surface: a client cycling program
// hashes must not be able to grow the registry without bound. Every vector
// caps its series count (Registry.SetMaxSeries, default 1024); insertions
// beyond the cap are folded into a shared overflow series and counted in
// the registry-wide "obs.series.dropped" counter, so the overflow is
// itself observable.

// MaxLabels is the most label keys a vector may declare. Label sets are
// deliberately tiny: labels multiply series, and every key must have a
// bounded value domain (see docs/PROTOCOL.md §7.1 for the schema).
const MaxLabels = 3

// MetricSeriesDropped counts label-set insertions refused by the per-vector
// series cap, registry-wide. The refused observations are not lost — they
// land in the vector's shared overflow series — but their labels are.
const MetricSeriesDropped = "obs.series.dropped"

// DefaultMaxSeries is the per-vector series cap until SetMaxSeries
// overrides it.
const DefaultMaxSeries = 1024

// labelKey is a comparable fixed-arity label value tuple — the map key for
// a vector's series. Unused positions stay "".
type labelKey [MaxLabels]string

// LabelValue is one key=value pair of a series, in the vector's declared
// key order.
type LabelValue struct {
	Key   string
	Value string
}

// labelString renders `{k1=v1,k2=v2}` for the expvar-style text form (no
// quoting; the text form is line-oriented and local). An empty set renders
// as "".
func labelString(keys []string, vals labelKey) string {
	if len(keys) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(vals[i])
	}
	b.WriteByte('}')
	return b.String()
}

// vecCore is the shared series table behind CounterVec and HistogramVec.
type vecCore[T any] struct {
	name    string
	keys    []string
	limit   int
	dropped *Counter // the registry's obs.series.dropped
	newT    func() *T

	mu       sync.RWMutex
	m        map[labelKey]*T
	overflow *T // lazily created when the cap is first hit
}

// with returns the series for the given label values, creating it on first
// use. Lookup of an existing series is allocation-free; values beyond the
// vector's key arity are ignored, missing ones read as "".
func (v *vecCore[T]) with(values ...string) *T {
	var k labelKey
	copy(k[:], values)
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
	if v.limit > 0 && len(v.m) >= v.limit {
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
// order), with the overflow series (empty label set semantics do not apply
// to it; it renders with the reserved value "_overflow") appended last when
// present.
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

// Keys returns the vector's declared label keys.
func (v *vecCore[T]) Keys() []string { return v.keys }

// CounterVec is a family of counters sharing one name, keyed by label
// values. Obtain one from Registry.CounterVec; obtain series with With.
type CounterVec struct {
	vecCore[Counter]
}

// With returns the counter for the given label values (in the vector's
// declared key order), creating the series on first use. Looking up an
// existing series allocates nothing.
func (v *CounterVec) With(values ...string) *Counter { return v.with(values...) }

// Total sums the vector's series, overflow included — the unlabeled view.
func (v *CounterVec) Total() int64 {
	v.mu.RLock()
	defer v.mu.RUnlock()
	var sum int64
	for _, c := range v.m {
		sum += c.Value()
	}
	if v.overflow != nil {
		sum += v.overflow.Value()
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

// clampKeys bounds and copies a vector's declared label keys.
func clampKeys(keys []string) []string {
	if len(keys) > MaxLabels {
		keys = keys[:MaxLabels]
	}
	return append([]string(nil), keys...)
}

// CounterVec returns the named counter vector with the given label keys
// (at most MaxLabels), creating it on first use. A later call with the
// same name returns the existing vector regardless of the keys passed.
func (r *Registry) CounterVec(name string, keys ...string) *CounterVec {
	r.mu.RLock()
	v, ok := r.cvecs[name]
	r.mu.RUnlock()
	if ok {
		return v
	}
	dropped := r.Counter(MetricSeriesDropped)
	r.mu.Lock()
	defer r.mu.Unlock()
	if v, ok = r.cvecs[name]; !ok {
		v = &CounterVec{vecCore[Counter]{
			name:    name,
			keys:    clampKeys(keys),
			limit:   r.maxSeries,
			dropped: dropped,
			newT:    func() *Counter { return &Counter{} },
			m:       make(map[labelKey]*Counter),
		}}
		r.cvecs[name] = v
	}
	return v
}

// HistogramVec returns the named histogram vector with the given label
// keys (at most MaxLabels), creating it on first use. A later call with
// the same name returns the existing vector regardless of the keys passed.
func (r *Registry) HistogramVec(name string, keys ...string) *HistogramVec {
	r.mu.RLock()
	v, ok := r.hvecs[name]
	r.mu.RUnlock()
	if ok {
		return v
	}
	dropped := r.Counter(MetricSeriesDropped)
	r.mu.Lock()
	defer r.mu.Unlock()
	if v, ok = r.hvecs[name]; !ok {
		v = &HistogramVec{vecCore[Histogram]{
			name:    name,
			keys:    clampKeys(keys),
			limit:   r.maxSeries,
			dropped: dropped,
			newT:    newHistogram,
			m:       make(map[labelKey]*Histogram),
		}}
		r.hvecs[name] = v
	}
	return v
}

// SetMaxSeries caps how many distinct label sets each *subsequently
// created* vector may hold (existing vectors keep their cap). n ≤ 0
// removes the bound. The default is DefaultMaxSeries.
func (r *Registry) SetMaxSeries(n int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.maxSeries = n
}

// RegisterGauge installs a named gauge computed at scrape time (rendered
// by WriteText and WritePrometheus). Re-registering a name replaces the
// function — idempotent wiring for components constructed repeatedly
// against the default registry.
func (r *Registry) RegisterGauge(name string, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gauges[name] = fn
}

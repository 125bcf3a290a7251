// Package obs is the system's observability substrate: atomic counters,
// log-scale latency histograms, and named span timers, collected in a
// Registry and rendered as expvar-style text (one "name value" pair per
// line). The protocol driver (internal/vc), the wire layer
// (internal/transport), and the cmd/ binaries all record into a registry;
// cmd/zaatar-server optionally serves its registry over HTTP.
//
// Everything is safe for concurrent use and allocation-free on the hot
// paths (Counter.Add, Histogram.Observe, Span.End), so instruments can sit
// inside the prover's worker pool without distorting what they measure.
// Streamed events are the trace package's (internal/obs/trace) and the
// structured logs' (slog.go); a registry only aggregates.
package obs

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonic (or gauge-style, with negative deltas) atomic
// 64-bit counter.
type Counter struct {
	v atomic.Int64
}

// Add adds delta to the counter.
func (c *Counter) Add(delta int64) { c.v.Add(delta) }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// numBuckets covers 1ns..2^47ns (~1.6 days) in power-of-two buckets —
// bucket i counts observations whose nanosecond value has bit length i.
const numBuckets = 48

// Histogram aggregates durations into power-of-two latency buckets with
// exact count, sum, min, and max. All methods are safe for concurrent use.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64 // nanoseconds
	min     atomic.Int64 // nanoseconds; math.MaxInt64 when empty
	max     atomic.Int64 // nanoseconds
	buckets [numBuckets]atomic.Int64
}

func newHistogram() *Histogram {
	h := &Histogram{}
	h.min.Store(math.MaxInt64)
	return h
}

func bucketOf(ns int64) int {
	if ns < 0 {
		ns = 0
	}
	b := bits.Len64(uint64(ns))
	if b >= numBuckets {
		b = numBuckets - 1
	}
	return b
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	ns := int64(d)
	h.count.Add(1)
	h.sum.Add(ns)
	h.buckets[bucketOf(ns)].Add(1)
	for {
		cur := h.min.Load()
		if ns >= cur || h.min.CompareAndSwap(cur, ns) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if ns <= cur || h.max.CompareAndSwap(cur, ns) {
			break
		}
	}
}

// HistogramSnapshot is a point-in-time copy of a histogram's aggregates.
type HistogramSnapshot struct {
	Count   int64
	Sum     time.Duration
	Min     time.Duration
	Max     time.Duration
	Buckets [numBuckets]int64 // Buckets[i] counts observations with 2^(i-1) ≤ ns < 2^i
}

// Snapshot copies the histogram's current state. Concurrent observers may
// land between the field loads, so the snapshot is consistent only in the
// quiescent case; aggregate monitoring does not need more.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count: h.count.Load(),
		Sum:   time.Duration(h.sum.Load()),
		Max:   time.Duration(h.max.Load()),
	}
	if mn := h.min.Load(); mn != math.MaxInt64 {
		s.Min = time.Duration(mn)
	}
	for i := range s.Buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// Mean returns the average observed duration, or 0 for an empty histogram.
func (s HistogramSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / time.Duration(s.Count)
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) from the power-of-two
// buckets by linear interpolation within the bucket holding the q-th
// observation: bucket i spans [2^(i−1), 2^i−1], and the rank's position
// among the bucket's observations places the estimate inside that span
// (assuming a uniform spread), clamped to the observed [Min, Max]. A
// histogram of identical observations therefore reports every quantile
// exactly; mixed distributions are off by at most the bucket width —
// strictly tighter than the pre-interpolation behavior of returning the
// bucket's upper edge.
func (s HistogramSnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i, n := range s.Buckets {
		if seen+n < rank {
			seen += n
			continue
		}
		if i == 0 {
			return 0 // bucket 0 holds only zero-valued observations
		}
		lo := int64(1) << uint(i-1)
		hi := int64(1)<<uint(i) - 1
		// Interpolate at the rank's midpoint-free position within the
		// bucket: rank-seen of n observations → fraction in (0, 1].
		v := lo + int64(float64(hi-lo)*float64(rank-seen)/float64(n))
		if mx := int64(s.Max); v > mx {
			v = mx
		}
		if mn := int64(s.Min); v < mn {
			v = mn
		}
		return time.Duration(v)
	}
	return s.Max
}

// Registry is a named collection of counters, histograms, labeled metric
// vectors (labels.go), and scrape-time gauges. The zero value is not
// usable; call NewRegistry.
type Registry struct {
	mu        sync.RWMutex
	counters  map[string]*Counter
	hists     map[string]*Histogram
	cvecs     map[string]*CounterVec
	hvecs     map[string]*HistogramVec
	gauges    map[string]func() float64
	maxSeries int
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:  make(map[string]*Counter),
		hists:     make(map[string]*Histogram),
		cvecs:     make(map[string]*CounterVec),
		hvecs:     make(map[string]*HistogramVec),
		gauges:    make(map[string]func() float64),
		maxSeries: DefaultMaxSeries,
	}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry, used when a component is not
// given an explicit one.
func Default() *Registry { return defaultRegistry }

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok = r.counters[name]; !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.RLock()
	h, ok := r.hists[name]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok = r.hists[name]; !ok {
		h = newHistogram()
		r.hists[name] = h
	}
	return h
}

// Span is a started named timer. End it exactly once.
type Span struct {
	h     *Histogram
	start time.Time
}

// StartSpan starts a timer whose End records into the histogram of the
// same name.
func (r *Registry) StartSpan(name string) Span {
	return Span{h: r.Histogram(name), start: time.Now()}
}

// End stops the span, records its duration, and returns it.
func (s Span) End() time.Duration {
	d := time.Since(s.start)
	s.h.Observe(d)
	return d
}

// histLines renders one histogram snapshot's expvar-style lines; suffix
// (the text-form label set, or "") follows each sub-metric name.
func histLines(lines []string, name, suffix string, s HistogramSnapshot) []string {
	return append(lines,
		fmt.Sprintf("%s.count%s %d", name, suffix, s.Count),
		fmt.Sprintf("%s.sum_ns%s %d", name, suffix, int64(s.Sum)),
		fmt.Sprintf("%s.min_ns%s %d", name, suffix, int64(s.Min)),
		fmt.Sprintf("%s.max_ns%s %d", name, suffix, int64(s.Max)),
		fmt.Sprintf("%s.avg_ns%s %d", name, suffix, int64(s.Mean())),
		fmt.Sprintf("%s.p50_ns%s %d", name, suffix, int64(s.Quantile(0.50))),
		fmt.Sprintf("%s.p90_ns%s %d", name, suffix, int64(s.Quantile(0.90))),
		fmt.Sprintf("%s.p99_ns%s %d", name, suffix, int64(s.Quantile(0.99))),
	)
}

// WriteText renders every metric as expvar-style "name value" lines,
// sorted by name. Counters render as a single line; each histogram renders
// count, sum, min, max, avg, and approximate p50/p90/p99 (nanoseconds).
// Labeled vectors render one line (or histogram block) per series with a
// `{k=v,...}` suffix plus an unlabeled total line for counter vectors;
// registered gauges render as "name value" with a float value.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.RLock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	cvecs := make(map[string]*CounterVec, len(r.cvecs))
	for k, v := range r.cvecs {
		cvecs[k] = v
	}
	hvecs := make(map[string]*HistogramVec, len(r.hvecs))
	for k, v := range r.hvecs {
		hvecs[k] = v
	}
	gauges := make(map[string]func() float64, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	r.mu.RUnlock()

	lines := make([]string, 0, len(counters)+8*len(hists))
	for name, c := range counters {
		lines = append(lines, fmt.Sprintf("%s %d", name, c.Value()))
	}
	for name, h := range hists {
		lines = histLines(lines, name, "", h.Snapshot())
	}
	for name, v := range cvecs {
		for _, s := range v.snapshot() {
			lines = append(lines, fmt.Sprintf("%s%s %d", name, labelString(v.keys, s.vals), s.t.Value()))
		}
		if _, dup := counters[name]; !dup && v.Len() > 0 {
			lines = append(lines, fmt.Sprintf("%s %d", name, v.Total()))
		}
	}
	for name, v := range hvecs {
		for _, s := range v.snapshot() {
			lines = histLines(lines, name, labelString(v.keys, s.vals), s.t.Snapshot())
		}
	}
	for name, fn := range gauges {
		lines = append(lines, fmt.Sprintf("%s %g", name, fn()))
	}
	sort.Strings(lines)
	for _, l := range lines {
		if _, err := fmt.Fprintln(w, l); err != nil {
			return err
		}
	}
	return nil
}

// HealthHandler answers liveness probes: 200 as long as the process can
// serve HTTP at all.
func HealthHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte("ok\n"))
	})
}

// Handler serves the registry as text/plain — the body behind
// zaatar-server's -metrics endpoint.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_ = r.WriteText(w)
	})
}

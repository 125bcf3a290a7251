// Package obs is the system's observability substrate: atomic counters,
// log-scale latency histograms, named span timers and scrape-time gauges,
// collected in a Registry and rendered in the Prometheus text exposition
// format (prometheus.go). The protocol driver (internal/vc), the wire layer
// (internal/transport), the farm and the kernels all record into a
// registry; cmd/zaatar-server and cmd/zaatar-client serve theirs over HTTP.
//
// A registry holds one family per metric name: one kind (counter,
// histogram or gauge) and one set of label keys, so every fact is recorded
// once, under one name. Asking for a name as another kind or with other
// keys panics.
//
// Everything is safe for concurrent use and allocation-free on the hot
// paths (Counter.Add, Histogram.Observe, Span.End, and With on an existing
// series), so instruments can sit inside the prover's worker pool without
// distorting what they measure. Streamed events are the trace package's
// (internal/obs/trace) and the structured logs' (slog.go); a registry only
// aggregates.
package obs

import (
	"fmt"
	"math"
	"math/bits"
	"net/http"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonic atomic 64-bit counter. A value that goes down is
// a gauge (Registry.RegisterGauge), not a counter.
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

// kind is a family's metric type, named as the exposition's # TYPE line
// names it.
type kind uint8

const (
	kindCounter kind = iota
	kindHistogram
	kindGauge
)

func (k kind) String() string { return [...]string{"counter", "histogram", "gauge"}[k] }

// family is every series recorded under one metric name: one kind, one
// set of label keys. An unlabeled counter or histogram is the family with
// no keys, holding exactly one series.
type family struct {
	kind  kind
	keys  []string
	cv    *CounterVec    // kindCounter
	hv    *HistogramVec  // kindHistogram
	gauge func() float64 // kindGauge
}

// Registry is a named collection of metric families: counters, histograms
// and scrape-time gauges, each optionally labeled (labels.go). The zero
// value is not usable; call NewRegistry.
type Registry struct {
	mu      sync.RWMutex
	fams    map[string]*family
	dropped *Counter // MetricSeriesDropped
}

// NewRegistry returns a registry holding only MetricSeriesDropped.
func NewRegistry() *Registry {
	r := &Registry{fams: make(map[string]*family)}
	r.dropped = r.Counter(MetricSeriesDropped)
	return r
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry, used when a component is not
// given an explicit one.
func Default() *Registry { return defaultRegistry }

// family returns name's family, creating it on first use. One name is one
// fact: asking for an existing name as another kind or with other label
// keys is a programming error and panics.
func (r *Registry) family(name string, k kind, keys []string) *family {
	r.mu.RLock()
	f := r.fams[name]
	r.mu.RUnlock()
	if f == nil {
		if len(keys) > maxLabels {
			panic(fmt.Sprintf("obs: metric %q declares %d label keys (max %d)", name, len(keys), maxLabels))
		}
		r.mu.Lock()
		if f = r.fams[name]; f == nil {
			f = &family{kind: k, keys: append([]string(nil), keys...)}
			if k == kindCounter {
				f.cv = new(CounterVec)
				f.cv.init(f.keys, r.dropped, func() *Counter { return &Counter{} })
			} else {
				f.hv = new(HistogramVec)
				f.hv.init(f.keys, r.dropped, newHistogram)
			}
			r.fams[name] = f
		}
		r.mu.Unlock()
	}
	if f.kind != k || !slices.Equal(f.keys, keys) {
		panic(conflict(name, f, k, keys))
	}
	return f
}

func conflict(name string, f *family, k kind, keys []string) string {
	return fmt.Sprintf("obs: metric %q is a %s{%s}, not a %s{%s}",
		name, f.kind, strings.Join(f.keys, ","), k, strings.Join(keys, ","))
}

// Counter returns the named unlabeled counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter { return r.family(name, kindCounter, nil).cv.solo }

// Histogram returns the named unlabeled histogram, creating it on first
// use.
func (r *Registry) Histogram(name string) *Histogram {
	return r.family(name, kindHistogram, nil).hv.solo
}

// CounterVec returns the named counter vector with the given label keys
// (at most three), creating it on first use.
func (r *Registry) CounterVec(name string, keys ...string) *CounterVec {
	return r.family(name, kindCounter, keys).cv
}

// HistogramVec returns the named histogram vector with the given label
// keys (at most three), creating it on first use.
func (r *Registry) HistogramVec(name string, keys ...string) *HistogramVec {
	return r.family(name, kindHistogram, keys).hv
}

// RegisterGauge installs a named gauge computed at scrape time.
// Re-registering a name replaces the function — idempotent wiring for
// components constructed repeatedly against one registry. fn must be safe
// to call from any goroutine.
func (r *Registry) RegisterGauge(name string, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f := r.fams[name]; f != nil && f.kind != kindGauge {
		panic(conflict(name, f, kindGauge, nil))
	}
	r.fams[name] = &family{kind: kindGauge, gauge: fn}
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

// HealthHandler answers liveness probes: 200 as long as the process can
// serve HTTP at all.
func HealthHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte("ok\n"))
	})
}

// Handler serves the registry in the Prometheus text exposition format —
// the body behind the binaries' /metrics endpoints.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}

package obs

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterVecBasics(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("transport.batches", "backend", "program_hash")
	if r.CounterVec("transport.batches", "backend", "program_hash") != v {
		t.Fatal("CounterVec did not return the existing vector")
	}
	c := v.With("zaatar", "abc123")
	c.Add(2)
	if v.With("zaatar", "abc123") != c {
		t.Fatal("With did not return the existing series")
	}
	v.With("ginger", "abc123").Inc()
	if got := v.Total(); got != 3 {
		t.Fatalf("Total = %d, want 3", got)
	}
	if got := v.Len(); got != 2 {
		t.Fatalf("Len = %d, want 2", got)
	}

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`zaatar_transport_batches_total{backend="zaatar",program_hash="abc123"} 2`,
		`zaatar_transport_batches_total{backend="ginger",program_hash="abc123"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("WritePrometheus missing %q:\n%s", want, out)
		}
	}
	// The total is sum() in the scrape: no unlabeled sample is synthesized.
	if strings.Contains(out, "\nzaatar_transport_batches_total ") {
		t.Fatalf("WritePrometheus wrote an unlabeled sample for a labeled family:\n%s", out)
	}
}

func TestHistogramVecBasics(t *testing.T) {
	r := NewRegistry()
	v := r.HistogramVec("vc.phase", "phase", "backend")
	v.With("commit", "zaatar").Observe(time.Millisecond)
	v.With("commit", "zaatar").Observe(3 * time.Millisecond)
	if s := v.With("commit", "zaatar").Snapshot(); s.Count != 2 {
		t.Fatalf("series snapshot count = %d, want 2", s.Count)
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `zaatar_vc_phase_seconds_count{phase="commit",backend="zaatar"} 2`) {
		t.Fatalf("WritePrometheus missing labeled histogram lines:\n%s", buf.String())
	}
}

// TestSeriesCap pins the cardinality-safety contract: past the per-vector
// cap, new label sets fold into a shared overflow series and the
// registry-wide obs.series.dropped counter ticks — a client cycling
// program hashes cannot grow the registry without bound.
func TestSeriesCap(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("transport.batches", "backend", "program_hash")
	v.limit = 4
	for i := 0; i < 7; i++ {
		v.With("zaatar", fmt.Sprintf("hash%02d", i)).Inc()
	}
	if got := v.Len(); got != 4 {
		t.Fatalf("Len = %d, want cap of 4", got)
	}
	if got := r.Counter(MetricSeriesDropped).Value(); got != 3 {
		t.Fatalf("%s = %d, want 3", MetricSeriesDropped, got)
	}
	// The refused observations land in the overflow series, so the total
	// still accounts for every increment.
	if got := v.Total(); got != 7 {
		t.Fatalf("Total = %d, want 7", got)
	}
	// Re-observing an over-cap label set keeps returning the shared
	// overflow series rather than dropping again silently growing the map.
	before := r.Counter(MetricSeriesDropped).Value()
	v.With("zaatar", "hash06").Inc()
	if got := r.Counter(MetricSeriesDropped).Value(); got != before+1 {
		t.Fatalf("dropped = %d, want %d", got, before+1)
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `zaatar_transport_batches_total{backend="_overflow",program_hash="_overflow"} 4`) {
		t.Fatalf("WritePrometheus missing overflow series:\n%s", buf.String())
	}
}

func TestSeriesCapHistogramVec(t *testing.T) {
	r := NewRegistry()
	v := r.HistogramVec("vc.phase", "phase")
	v.limit = 2
	for _, p := range []string{"commit", "decommit", "verify", "respond"} {
		v.With(p).Observe(time.Microsecond)
	}
	if got, want := v.Len(), 2; got != want {
		t.Fatalf("Len = %d, want %d", got, want)
	}
	if got := r.Counter(MetricSeriesDropped).Value(); got != 2 {
		t.Fatalf("dropped = %d, want 2", got)
	}
}

// TestLabeledLookupAllocs enforces the hot-path contract: bumping a series
// whose label set already exists allocates nothing, so labeled counters
// can sit inside the prover's batch loop.
func TestLabeledLookupAllocs(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("hot.counter", "backend", "program_hash")
	cv.With("zaatar", "abc123").Inc()
	if n := testing.AllocsPerRun(1000, func() { cv.With("zaatar", "abc123").Inc() }); n != 0 {
		t.Fatalf("CounterVec.With on existing series allocates %v allocs/op, want 0", n)
	}
	// Looking the vector up by name, as the kernels do per call, is free too.
	if n := testing.AllocsPerRun(1000, func() { r.CounterVec("hot.counter", "backend", "program_hash").With("zaatar", "abc123").Inc() }); n != 0 {
		t.Fatalf("Registry.CounterVec lookup allocates %v allocs/op, want 0", n)
	}
	hv := r.HistogramVec("hot.hist", "phase")
	hv.With("commit").Observe(time.Microsecond)
	if n := testing.AllocsPerRun(1000, func() { hv.With("commit").Observe(time.Microsecond) }); n != 0 {
		t.Fatalf("HistogramVec.With on existing series allocates %v allocs/op, want 0", n)
	}
}

// TestRegistryConcurrentStress hammers creation and observation of every
// instrument kind from 8 goroutines; run under -race it verifies the
// registry's synchronization end to end.
func TestRegistryConcurrentStress(t *testing.T) {
	r := NewRegistry()
	// A cap of 16 forces the overflow path under contention too.
	r.CounterVec("vec.c", "k").limit = 16
	r.HistogramVec("vec.h", "k").limit = 16
	const workers, iters = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				r.Counter(fmt.Sprintf("c%d", i%4)).Inc()
				r.Histogram(fmt.Sprintf("h%d", i%4)).Observe(time.Duration(i))
				r.CounterVec("vec.c", "k").With(fmt.Sprintf("v%d", i%32)).Inc()
				r.HistogramVec("vec.h", "k").With(fmt.Sprintf("v%d", i%32)).Observe(time.Duration(i))
				r.RegisterGauge("g", func() float64 { return float64(w) })
				if i%100 == 0 {
					var buf bytes.Buffer
					if err := r.WritePrometheus(&buf); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("c0").Value(); got != workers*iters/4 {
		t.Fatalf("c0 = %d, want %d", got, workers*iters/4)
	}
	if got := r.CounterVec("vec.c", "k").Total(); got != workers*iters {
		t.Fatalf("vec.c total = %d, want %d", got, workers*iters)
	}
}

func TestGauges(t *testing.T) {
	r := NewRegistry()
	r.RegisterGauge("farm.workers.live", func() float64 { return 0.25 })
	// Re-registering replaces the function (idempotent wiring).
	r.RegisterGauge("farm.workers.live", func() float64 { return 0.5 })
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "# TYPE zaatar_farm_workers_live gauge") ||
		!strings.Contains(out, "zaatar_farm_workers_live 0.5") || strings.Contains(out, "0.25") {
		t.Fatalf("WritePrometheus gauge missing or not replaced:\n%s", out)
	}
}

func TestPrometheusLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("m", "k").With("a\\b\"c\nd").Inc()
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := `zaatar_m_total{k="a\\b\"c\nd"} 1`
	if !strings.Contains(buf.String(), want) {
		t.Fatalf("escaped series %q missing:\n%s", want, buf.String())
	}
}

// TestFamilyConflictPanics pins one family per name: asking for an
// existing name as another kind, or with other label keys, is a
// programming error.
func TestFamilyConflictPanics(t *testing.T) {
	cases := []struct {
		name string
		make func(r *Registry)
	}{
		{"counter-then-histogram", func(r *Registry) { r.Counter("m"); r.Histogram("m") }},
		{"unlabeled-then-labeled", func(r *Registry) { r.Counter("m"); r.CounterVec("m", "backend") }},
		{"labeled-then-unlabeled", func(r *Registry) { r.CounterVec("m", "backend"); r.Counter("m") }},
		{"other-keys", func(r *Registry) { r.HistogramVec("m", "phase"); r.HistogramVec("m", "phase", "backend") }},
		{"gauge-over-counter", func(r *Registry) { r.Counter("m"); r.RegisterGauge("m", func() float64 { return 0 }) }},
		{"counter-over-gauge", func(r *Registry) { r.RegisterGauge("m", func() float64 { return 0 }); r.Counter("m") }},
		{"too-many-keys", func(r *Registry) { r.CounterVec("m", "a", "b", "c", "d") }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic")
				}
			}()
			tc.make(NewRegistry())
		})
	}
	// The same kind and keys return the same family.
	r := NewRegistry()
	if r.CounterVec("m", "backend") != r.CounterVec("m", "backend") {
		t.Fatal("CounterVec did not return the existing vector")
	}
}

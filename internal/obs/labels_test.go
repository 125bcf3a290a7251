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
	if r.CounterVec("transport.batches") != v {
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
	if keys := v.Keys(); len(keys) != 2 || keys[0] != "backend" {
		t.Fatalf("Keys = %v", keys)
	}

	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"transport.batches{backend=zaatar,program_hash=abc123} 2",
		"transport.batches{backend=ginger,program_hash=abc123} 1",
		"transport.batches 3", // synthesized unlabeled total
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("WriteText missing %q:\n%s", want, out)
		}
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
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "vc.phase.count{phase=commit,backend=zaatar} 2") {
		t.Fatalf("WriteText missing labeled histogram lines:\n%s", buf.String())
	}
}

// TestSeriesCap pins the cardinality-safety contract: past the per-vector
// cap, new label sets fold into a shared overflow series and the
// registry-wide obs.series.dropped counter ticks — a client cycling
// program hashes cannot grow the registry without bound.
func TestSeriesCap(t *testing.T) {
	r := NewRegistry()
	r.SetMaxSeries(4)
	v := r.CounterVec("transport.batches", "backend", "program_hash")
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
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "transport.batches{backend=_overflow,program_hash=_overflow}") {
		t.Fatalf("WriteText missing overflow series:\n%s", buf.String())
	}
}

func TestSeriesCapHistogramVec(t *testing.T) {
	r := NewRegistry()
	r.SetMaxSeries(2)
	v := r.HistogramVec("vc.phase", "phase")
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
	r.SetMaxSeries(16) // force the overflow path under contention too
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
					if err := r.WriteText(&buf); err != nil {
						t.Error(err)
						return
					}
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
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if out := buf.String(); !strings.Contains(out, "farm.workers.live 0.5") || strings.Contains(out, "0.25") {
		t.Fatalf("WriteText gauge not replaced:\n%s", out)
	}
	buf.Reset()
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "# TYPE zaatar_farm_workers_live gauge") ||
		!strings.Contains(out, "zaatar_farm_workers_live 0.5") {
		t.Fatalf("WritePrometheus missing gauge:\n%s", out)
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

func TestPrometheusMergedTypeBlock(t *testing.T) {
	r := NewRegistry()
	r.Counter("transport.batches").Add(5)
	r.CounterVec("transport.batches", "backend").With("zaatar").Add(3)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Count(out, "# TYPE zaatar_transport_batches_total counter") != 1 {
		t.Fatalf("want exactly one TYPE header for the shared name:\n%s", out)
	}
	for _, want := range []string{
		"zaatar_transport_batches_total 5",
		`zaatar_transport_batches_total{backend="zaatar"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q:\n%s", want, out)
		}
	}
}

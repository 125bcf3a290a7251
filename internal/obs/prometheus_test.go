package obs

import (
	"bytes"
	"flag"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestWritePrometheusGolden pins the exact exposition-format output for a
// deterministic registry. Regenerate with: go test ./internal/obs -run
// Golden -update
func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("vc.batches").Add(3)
	r.Counter("transport.sessions").Add(1)
	h := r.Histogram("vc.verify")
	for _, d := range []time.Duration{0, time.Nanosecond, time.Microsecond, 2 * time.Microsecond, time.Millisecond} {
		h.Observe(d)
	}
	bv := r.CounterVec("transport.batches", "backend", "program_hash")
	bv.With("zaatar", "a1b2c3d4e5f6").Add(3)
	bv.With("ginger", "ffeeddccbbaa").Add(2)
	// Label values with exposition-format metacharacters must escape.
	r.CounterVec("transport.errors", "kind").With("say \"no\"\\\n").Inc()
	pv := r.HistogramVec("vc.phase", "phase", "backend")
	pv.With("commit", "zaatar").Observe(2 * time.Microsecond)
	r.RegisterGauge("farm.workers.live", func() float64 { return 2 })
	// A family with no series writes nothing.
	r.CounterVec("transport.store.hits", "backend")

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "prometheus.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("prometheus output drifted from golden file:\n--- got ---\n%s--- want ---\n%s", buf.Bytes(), want)
	}
}

func TestWritePrometheusSemantics(t *testing.T) {
	r := NewRegistry()
	r.Histogram("vc.verify").Observe(3 * time.Microsecond) // bucket 12 (bit length of 3000)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// Cumulative buckets: everything below 2.047µs is 0, everything from
	// 4.095µs up (and +Inf) is 1.
	for _, want := range []string{
		`zaatar_vc_verify_seconds_bucket{le="2.047e-06"} 0`,
		`zaatar_vc_verify_seconds_bucket{le="4.095e-06"} 1`,
		`zaatar_vc_verify_seconds_bucket{le="+Inf"} 1`,
		`zaatar_vc_verify_seconds_sum 3e-06`,
		`zaatar_vc_verify_seconds_count 1`,
		`# TYPE zaatar_vc_verify_seconds histogram`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}

	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "zaatar_vc_verify_seconds_count 1") {
		t.Fatalf("handler response %d %q", rec.Code, rec.Body.String())
	}
}

// TestHotPathAllocs enforces the zero-allocation contract on the
// instruments that sit inside the prover's worker pool.
func TestHotPathAllocs(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hot.count")
	if n := testing.AllocsPerRun(1000, func() { c.Add(1) }); n != 0 {
		t.Fatalf("Counter.Add allocates %v allocs/op, want 0", n)
	}
	h := r.Histogram("hot")
	if n := testing.AllocsPerRun(1000, func() { h.Observe(time.Microsecond) }); n != 0 {
		t.Fatalf("Histogram.Observe allocates %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { r.StartSpan("hot").End() }); n != 0 {
		t.Fatalf("StartSpan/End allocates %v allocs/op, want 0", n)
	}
}

func BenchmarkCounterAdd(b *testing.B) {
	c := NewRegistry().Counter("hot")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

func BenchmarkSpanEnd(b *testing.B) {
	r := NewRegistry()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.StartSpan("hot").End()
	}
}

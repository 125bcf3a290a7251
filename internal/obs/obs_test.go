package obs

import (
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

func TestCounter(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a")
	c.Inc()
	c.Add(4)
	c.Add(-2)
	if got := c.Value(); got != 3 {
		t.Fatalf("Value = %d, want 3", got)
	}
	if r.Counter("a") != c {
		t.Fatal("Counter did not return the existing instance")
	}
}

func TestHistogramAggregates(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat")
	for _, d := range []time.Duration{time.Microsecond, 2 * time.Microsecond, 10 * time.Microsecond} {
		h.Observe(d)
	}
	s := h.Snapshot()
	if s.Count != 3 {
		t.Fatalf("Count = %d", s.Count)
	}
	if s.Min != time.Microsecond || s.Max != 10*time.Microsecond {
		t.Fatalf("Min/Max = %v/%v", s.Min, s.Max)
	}
	if want := 13 * time.Microsecond / 3; s.Mean() != want {
		t.Fatalf("Mean = %v, want %v", s.Mean(), want)
	}
	// The p100 upper bound is clamped to the observed max.
	if q := s.Quantile(1.0); q != 10*time.Microsecond {
		t.Fatalf("Quantile(1.0) = %v", q)
	}
	if q := s.Quantile(0.5); q < 2*time.Microsecond || q > 4*time.Microsecond {
		t.Fatalf("Quantile(0.5) = %v, want within bucket of 2µs", q)
	}
}

// TestQuantileInterpolation pins p50/p90/p99 for known distributions. The
// power-of-two buckets interpolate within the bucket holding the rank, so
// a uniform 1..1000ns distribution lands its median exactly on 500ns
// (the pre-interpolation behavior returned the bucket's upper edge, 511ns),
// and identical observations report every quantile exactly.
func TestQuantileInterpolation(t *testing.T) {
	uniform := newHistogram()
	for i := 1; i <= 1000; i++ {
		uniform.Observe(time.Duration(i))
	}
	constant := newHistogram()
	for i := 0; i < 100; i++ {
		constant.Observe(700 * time.Nanosecond)
	}
	single := newHistogram()
	single.Observe(5 * time.Nanosecond)

	cases := []struct {
		name          string
		h             *Histogram
		p50, p90, p99 time.Duration
	}{
		// rank 500 falls in bucket [256,511] at position 245/256 → 500ns.
		// rank 900 falls in bucket [512,1023] at 389/489 → 918ns (the
		// bucket spans past the observed range; Max clamps p99 to 1000ns).
		{"uniform-1..1000ns", uniform, 500, 918, 1000},
		{"constant-700ns", constant, 700, 700, 700},
		{"single-5ns", single, 5, 5, 5},
	}
	for _, tc := range cases {
		s := tc.h.Snapshot()
		if got := s.Quantile(0.50); got != tc.p50 {
			t.Errorf("%s: p50 = %v, want %v", tc.name, got, tc.p50)
		}
		if got := s.Quantile(0.90); got != tc.p90 {
			t.Errorf("%s: p90 = %v, want %v", tc.name, got, tc.p90)
		}
		if got := s.Quantile(0.99); got != tc.p99 {
			t.Errorf("%s: p99 = %v, want %v", tc.name, got, tc.p99)
		}
	}
}

func TestHistogramEmpty(t *testing.T) {
	s := newHistogram().Snapshot()
	if s.Min != 0 || s.Max != 0 || s.Mean() != 0 || s.Quantile(0.5) != 0 {
		t.Fatalf("empty histogram snapshot not zeroed: %+v", s)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := newHistogram()
	var wg sync.WaitGroup
	const per = 1000
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(time.Duration(w*per+i) * time.Nanosecond)
			}
		}(w)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != 8*per {
		t.Fatalf("Count = %d, want %d", s.Count, 8*per)
	}
	if s.Min != 0 || s.Max != time.Duration(8*per-1) {
		t.Fatalf("Min/Max = %v/%v", s.Min, s.Max)
	}
}

func TestSpan(t *testing.T) {
	r := NewRegistry()
	sp := r.StartSpan("phase.commit")
	if d := sp.End(); d < 0 {
		t.Fatalf("span duration %v", d)
	}
	if s := r.Histogram("phase.commit").Snapshot(); s.Count != 1 {
		t.Fatalf("span not recorded: %+v", s)
	}
}

func TestHealthHandler(t *testing.T) {
	rec := httptest.NewRecorder()
	HealthHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 200 || rec.Body.String() != "ok\n" {
		t.Fatalf("healthz = %d %q", rec.Code, rec.Body.String())
	}
}

func TestDefaultRegistryIsSingleton(t *testing.T) {
	if Default() != Default() {
		t.Fatal("Default registry not a singleton")
	}
}

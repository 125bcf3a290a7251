package experiments

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"time"

	"zaatar/internal/elgamal"
	"zaatar/internal/farm"
	"zaatar/internal/field"
	"zaatar/internal/obs"
	"zaatar/internal/pcp"
	"zaatar/internal/transport"
)

// CacheCurvePoint is one point on the batches-per-connection curve: a fresh
// (cache-warm) session carrying n batches of β instances each.
type CacheCurvePoint struct {
	Batches int `json:"batches"`
	// SetupMs is the session-open wall (hello/ack round trip; the program
	// comes from the server's cache).
	SetupMs float64 `json:"setup_ms"`
	// FirstBatchMs is the first batch's wall; MeanLaterMs is the
	// steady-state per-batch wall. Later batches skip compilation and
	// negotiation but still reseed and re-key (the commitment key is
	// per-batch for soundness), so the gap between the two measures only
	// what keep-alive legitimately amortizes.
	FirstBatchMs float64 `json:"first_batch_ms"`
	MeanLaterMs  float64 `json:"mean_later_batch_ms"`
	// AmortizedMs is (setup + all batches) / n — the quantity the keep-alive
	// protocol drives toward the steady-state batch cost.
	AmortizedMs float64 `json:"amortized_ms_per_batch"`
}

// CacheResult quantifies the tentpole's two amortizations: the server-side
// program cache (cold vs warm session open) and wire-v2 keep-alive (the
// batches-per-connection curve).
type CacheResult struct {
	Benchmark string `json:"benchmark"`
	// Beta is the number of instances per batch.
	Beta int `json:"beta"`
	// ColdSetupMs is the wall time to open the first session: the server
	// misses its cache and compiles the program before acking.
	ColdSetupMs float64 `json:"cold_setup_ms"`
	// WarmSetupMs is the same wall for a second session on the same service:
	// the server serves the compiled program and prover precomputation from
	// its LRU, so no compile span appears on its side.
	WarmSetupMs float64 `json:"warm_setup_ms"`
	// CacheHits/CacheMisses are the service's transport.cache.* counters
	// after the whole experiment; misses stays at 1.
	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`

	Curve []CacheCurvePoint `json:"curve"`
}

func wallMs(f func() error) (float64, error) {
	start := time.Now()
	err := f()
	return msOf(time.Since(start)), err
}

// RunCache measures cache amortization on the scale's first benchmark
// against an in-process transport.Service: one cold session (server
// compiles), then cache-warm sessions carrying 1, 2, 4, and 8 batches each
// over the kept-alive connection.
func RunCache(o Options, beta int) (*CacheResult, error) {
	if beta < 1 {
		beta = 1
	}
	bench := Benchmarks(o.Scale)[0]
	rng := rand.New(rand.NewSource(o.Seed))
	batch := genBatch(bench, rng, beta)

	reg := obs.NewRegistry()
	svc := transport.NewService(transport.ServiceOptions{
		Workers: o.Workers,
		Obs:     reg,
	})
	hello := transport.Hello{
		Source:       bench.Source,
		Field220:     bench.Field == field.F220(),
		Backends:     []string{pcp.BackendZaatar},
		RhoLin:       o.Params.RhoLin,
		Rho:          o.Params.Rho,
		NoCommitment: !o.Crypto,
	}
	fopts := farm.Options{Seed: []byte(fmt.Sprintf("cache-%d", o.Seed))}
	if o.Crypto {
		fopts.Group = elgamal.GroupFor(bench.Field)
	}
	ctx := context.Background()

	// open dials an in-process pipe to the service and returns the session
	// plus the session-open wall (which includes the server's cache lookup
	// and, on a miss, the compile).
	open := func() (*farm.Farm, float64, error) {
		client, server := net.Pipe()
		go func() { _ = svc.ServeConn(ctx, server) }()
		var sess *farm.Farm
		ms, err := wallMs(func() (err error) {
			sess, err = farm.New(ctx, []string{"prover"}, []net.Conn{client}, hello, fopts)
			return err
		})
		return sess, ms, err
	}

	res := &CacheResult{Benchmark: bench.Name, Beta: beta}

	// Cold: first session ever — the server compiles.
	sess, ms, err := open()
	if err != nil {
		return nil, err
	}
	res.ColdSetupMs = ms
	if _, err := sess.RunBatch(ctx, batch); err != nil {
		sess.Close()
		return nil, err
	}
	if err := sess.Close(); err != nil {
		return nil, err
	}

	// Warm: same program, fresh session — served from the LRU.
	sess, ms, err = open()
	if err != nil {
		return nil, err
	}
	res.WarmSetupMs = ms
	if err := sess.Close(); err != nil {
		return nil, err
	}

	// Batches-per-connection curve, all cache-warm.
	for _, n := range []int{1, 2, 4, 8} {
		sess, setupMs, err := open()
		if err != nil {
			return nil, err
		}
		pt := CacheCurvePoint{Batches: n, SetupMs: setupMs}
		total := setupMs
		var later float64
		for b := 0; b < n; b++ {
			ms, err := wallMs(func() error {
				_, err := sess.RunBatch(ctx, batch)
				return err
			})
			if err != nil {
				sess.Close()
				return nil, err
			}
			total += ms
			if b == 0 {
				pt.FirstBatchMs = ms
			} else {
				later += ms
			}
		}
		if err := sess.Close(); err != nil {
			return nil, err
		}
		if n > 1 {
			pt.MeanLaterMs = later / float64(n-1)
		}
		pt.AmortizedMs = total / float64(n)
		res.Curve = append(res.Curve, pt)
	}

	res.CacheHits = reg.Counter(transport.MetricCacheHits).Value()
	res.CacheMisses = reg.Counter(transport.MetricCacheMisses).Value()
	return res, nil
}

// RenderCache prints the cache-amortization experiment: the cold→warm
// session-open drop, then the per-batch amortization curve.
func RenderCache(w io.Writer, r *CacheResult) {
	fmt.Fprintf(w, "program cache + keep-alive amortization (%s, β=%d per batch)\n\n", r.Benchmark, r.Beta)
	fmt.Fprintf(w, "session open   cold (server compiles): %s\n", fmtDur(r.ColdSetupMs/1e3))
	fmt.Fprintf(w, "session open   warm (LRU hit):         %s", fmtDur(r.WarmSetupMs/1e3))
	if r.WarmSetupMs > 0 {
		fmt.Fprintf(w, "   (%.1fx faster)", r.ColdSetupMs/r.WarmSetupMs)
	}
	fmt.Fprintf(w, "\ncache counters: %d hits, %d misses\n\n", r.CacheHits, r.CacheMisses)

	tb := newTable("batches/conn", "open", "first batch", "later batches (mean)", "amortized/batch")
	for _, pt := range r.Curve {
		later := "—"
		if pt.Batches > 1 {
			later = fmtDur(pt.MeanLaterMs / 1e3)
		}
		tb.add(fmt.Sprintf("%d", pt.Batches),
			fmtDur(pt.SetupMs/1e3),
			fmtDur(pt.FirstBatchMs/1e3),
			later,
			fmtDur(pt.AmortizedMs/1e3))
	}
	tb.render(w)
}

package vc

import (
	"context"
	"errors"
	"math/big"
	"sync"
	"sync/atomic"
	"time"

	"zaatar/internal/obs"
	"zaatar/internal/obs/trace"
)

// ProverLink carries one batch's two verifier messages to a prover and its
// replies back: in process (RunBatch's local link) or over one farm
// worker's wire connection (transport.Conn). It is the single
// prove/verify seam every batch crosses; Drive sequences the protocol
// around it.
type ProverLink interface {
	// Commit opens the batch with req and returns one commitment per
	// instance, index-aligned with inputs.
	Commit(ctx context.Context, req *CommitRequest, inputs [][]*big.Int) ([]*Commitment, error)
	// Respond hands the prover the decommit and calls emit once per
	// instance as each response becomes available — possibly concurrently,
	// possibly out of order. It returns after the last emit.
	Respond(ctx context.Context, dec *DecommitRequest, emit func(i int, r *Response)) error
}

// Verdict is the verifier-side outcome of one batch: per-instance
// acceptance, rejection reasons and claimed outputs, index-aligned with the
// batch, plus the verifier's per-phase measurements.
type Verdict struct {
	Accepted []bool
	Reasons  []string
	Outputs  [][]*big.Int

	// Metrics holds the per-phase measurements of the Drive that produced
	// the verdict; a farm batch of several shards leaves it zero.
	Metrics BatchMetrics
}

// AllAccepted reports whether every instance verified.
func (r *Verdict) AllAccepted() bool {
	for _, ok := range r.Accepted {
		if !ok {
			return false
		}
	}
	return len(r.Accepted) > 0
}

// Test hooks, nil outside tests. Both run at Drive's barrier, on the
// verifier side of every link: testHookAfterCommit once per received
// commitment (and may tamper with it), then testHookPreDecommit once,
// before the decommit is built.
var (
	testHookAfterCommit func(i int, cm *Commitment)
	testHookPreDecommit func()
)

var errEmptyBatch = errors.New("vc: empty batch")

// Drive runs the protocol for one batch of inputs between v and the prover
// behind link, verifying on a pool of workers goroutines:
//
//	commit    v.Setup() → link.Commit, then the barrier: the query seed is
//	          revealed only after every commitment is in (binding; §2.2)
//	decommit  v.Decommit()
//	respond   link.Respond streams each response into …
//	verify    … v.VerifyInstance, in parallel, overlapped with respond
//
// Each phase is a vc.<phase> trace span and an observation of
// vc.phase{phase, backend}; the batch counts once in vc.batches,
// vc.instances and vc.rejected. v must be fresh (see Verifier.Spent).
// Cancelling ctx aborts between per-instance steps and surfaces ctx.Err().
func Drive(ctx context.Context, v *Verifier, link ProverLink, inputs [][]*big.Int, workers int) (*Verdict, error) {
	beta := len(inputs)
	if beta == 0 {
		return nil, errEmptyBatch
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if workers < 1 {
		workers = 1
	}
	out := &Verdict{
		Accepted: make([]bool, beta),
		Reasons:  make([]string, beta),
		Outputs:  make([][]*big.Int, beta),
		Metrics:  BatchMetrics{Instances: beta, Workers: workers, Setup: v.SetupDuration()},
	}

	start := time.Now()
	sp, pctx := v.phase(ctx, "commit")
	cms, err := link.Commit(pctx, v.Setup(), inputs)
	out.Metrics.Commit = sp.end()
	if err != nil {
		return nil, err
	}
	if testHookAfterCommit != nil {
		for i, cm := range cms {
			testHookAfterCommit(i, cm)
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err // never reveal the seed of an abandoned batch
	}
	if testHookPreDecommit != nil {
		testHookPreDecommit()
	}

	sp, _ = v.phase(ctx, "decommit")
	dec, err := v.Decommit()
	out.Metrics.Decommit = sp.end()
	if err != nil {
		return nil, err
	}

	// Responses stream through a bounded channel into the verification
	// pool, so the verifier checks early instances while the prover is
	// still answering later ones. On cancellation the pool keeps draining
	// without verifying, so emit never blocks for good.
	overlap := time.Now()
	responses := make([]*Response, beta)
	ready := make(chan int, 2*workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ready {
				if ctx.Err() != nil {
					continue
				}
				vs, _ := v.phase(ctx, "verify")
				vs.tr.WithArg("instance", int64(i))
				ok, reason := v.VerifyInstance(ctx, inputs[i], cms[i], responses[i])
				atomic.AddInt64((*int64)(&out.Metrics.VerifyTotal), int64(vs.end()))
				out.Accepted[i], out.Reasons[i], out.Outputs[i] = ok, reason, cms[i].Output
			}
		}()
	}
	sp, pctx = v.phase(ctx, "respond")
	err = link.Respond(pctx, dec, func(i int, r *Response) {
		responses[i] = r
		ready <- i
	})
	out.Metrics.Respond = sp.end()
	out.Metrics.ProverWall = time.Since(start)
	close(ready)
	wg.Wait()
	out.Metrics.RespondVerify = time.Since(overlap)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	reg := v.Cfg.registry()
	reg.CounterVec(MetricBatches, LabelBackend).With(v.Backend()).Inc()
	reg.Counter(MetricInstances).Add(int64(beta))
	for _, ok := range out.Accepted {
		if !ok {
			reg.Counter(MetricRejected).Inc()
		}
	}
	return out, nil
}

// phaseTimer is one running protocol phase; see phase.
type phaseTimer struct {
	tr    *trace.Span
	h     *obs.Histogram
	start time.Time
}

// phase opens protocol phase name: a "vc.<name>" trace span under ctx
// (the returned context carries it) whose end also observes the duration
// in vc.phase{phase=name, backend}. The same call instruments every link.
func phase(ctx context.Context, reg *obs.Registry, backend, name string) (phaseTimer, context.Context) {
	tr, ctx := trace.Child(ctx, "vc."+name)
	h := reg.HistogramVec(MetricPhase, LabelPhase, LabelBackend).With(name, backend)
	return phaseTimer{tr: tr, h: h, start: time.Now()}, ctx
}

// phase opens one of v's phases, labeled with its backend.
func (v *Verifier) phase(ctx context.Context, name string) (phaseTimer, context.Context) {
	return phase(ctx, v.Cfg.registry(), v.Backend(), name)
}

// end closes the phase, observes its duration and returns it. Call it
// once.
func (p phaseTimer) end() time.Duration {
	d := time.Since(p.start)
	p.tr.End()
	p.h.Observe(d)
	return d
}

// DeriveSeed gives the n-th re-key or fork of a farm session its own
// deterministic query seed from a fixed base; an empty base stays empty
// (fresh randomness every time).
func DeriveSeed(base []byte, n int) []byte {
	if len(base) == 0 {
		return nil
	}
	out := make([]byte, 0, len(base)+4)
	out = append(out, base...)
	return append(out, byte(n>>24), byte(n>>16), byte(n>>8), byte(n))
}

package vc

import (
	"context"
	"fmt"
	"math/big"
	"sync"
	"sync/atomic"
	"time"

	"zaatar/internal/compiler"
	"zaatar/internal/obs/trace"
)

// BatchMetrics is the structured per-phase measurement record for one
// batch. The same spans are aggregated across batches in the obs registry
// (see the metric name constants); this struct is the single-batch view
// that the figures and the -stats output consume.
type BatchMetrics struct {
	// Instances is the batch size β; Workers the pool size used.
	Instances int
	Workers   int

	// Setup is the verifier's amortized query/key construction time.
	Setup time.Duration
	// Commit is the wall-clock of pipeline stage 1: solve, build proofs,
	// commit — parallel across instances, barrier at the end.
	Commit time.Duration
	// Decommit is stage 2: building and exchanging the decommit message
	// (runs only after every commitment; the soundness barrier).
	Decommit time.Duration
	// Respond is the wall-clock of stage 3: answering queries, parallel,
	// streaming finished instances into stage 4.
	Respond time.Duration
	// RespondVerify is the combined wall-clock of the overlapped stages
	// 3+4 — with the pipeline this is less than Respond + VerifyTotal.
	RespondVerify time.Duration
	// VerifyTotal is the summed per-instance verification time
	// (consistency + PCP checks) across the batch.
	VerifyTotal time.Duration
	// ProverWall spans stages 1–3: commit start to the last response —
	// with enough workers, close to one instance's latency (§5.2,
	// Figure 6).
	ProverWall time.Duration
	// Total is the whole RunBatch wall-clock.
	Total time.Duration
}

// Metric names exported to the obs registry by RunBatch, documented in
// docs/PROTOCOL.md ("Pipeline stages").
const (
	MetricBatches      = "vc.batches"   // counter: batches driven
	MetricInstances    = "vc.instances" // counter: instances proved
	MetricRejected     = "vc.rejected"  // counter: instances rejected
	MetricSpanSetup    = "vc.setup"     // histogram: verifier setup per batch
	MetricSpanCommit   = "vc.commit"    // histogram: stage-1 wall per batch
	MetricSpanDecommit = "vc.decommit"  // histogram: stage-2 wall per batch
	MetricSpanRespond  = "vc.respond"   // histogram: stage-3 wall per batch
	MetricSpanVerify   = "vc.verify"    // histogram: per-instance verification
	MetricSpanBatch    = "vc.batch"     // histogram: whole batch wall
	// MetricPhase is the labeled per-phase histogram vector: one series per
	// {phase, backend} pair, phase ∈ {setup, commit, decommit, respond,
	// verify, batch}. The unlabeled vc.* histograms above remain the
	// aggregate views.
	MetricPhase = "vc.phase"
	// MetricBackendBatches prefixes a per-backend batch counter; the full
	// series name is the prefix plus the backend name, e.g.
	// "pcp.backend.batches.sumcheck".
	MetricBackendBatches = "pcp.backend.batches."
)

// Label keys of the MetricPhase vector (see docs/PROTOCOL.md §7.1).
const (
	LabelPhase   = "phase"
	LabelBackend = "backend"
)

// BatchResult aggregates one batch's outcomes and measurements.
type BatchResult struct {
	Accepted []bool
	Reasons  []string
	Outputs  [][]*big.Int

	// ProverTimes decomposes each instance's prover cost (Figure 5).
	ProverTimes []ProverTimes
	// Metrics holds the structured per-phase measurements.
	Metrics BatchMetrics
}

// AllAccepted reports whether every instance verified.
func (r *BatchResult) AllAccepted() bool {
	for _, ok := range r.Accepted {
		if !ok {
			return false
		}
	}
	return len(r.Accepted) > 0
}

// Test hooks, nil outside tests. testHookAfterCommit runs after each
// instance's commitment is produced (and may tamper with it);
// testHookPreDecommit runs at the barrier, after every commitment and
// before the decommit is built.
var (
	testHookAfterCommit func(i int, cm *Commitment)
	testHookPreDecommit func()
)

// RunBatch drives the full protocol for a batch of instances of one
// computation as a staged pipeline, spreading the prover's work over
// cfg.Workers goroutines (the paper's distributed prover; Figure 6):
//
//	stage 1  Commit          parallel, barrier (soundness: all commitments
//	                         precede the query seed)
//	stage 2  Decommit        single exchange
//	stage 3  Respond         parallel, streams each finished instance ↓
//	stage 4  VerifyInstance  parallel, overlapped with stage 3
//
// Cancelling ctx aborts promptly between per-instance steps and surfaces
// ctx.Err().
func RunBatch(ctx context.Context, prog *compiler.Program, cfg Config, inputs [][]*big.Int) (*BatchResult, error) {
	if len(inputs) == 0 {
		return nil, fmt.Errorf("vc: empty batch")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	reg := cfg.registry()
	batchSpan := reg.StartSpan(MetricSpanBatch)
	// If the caller's context carries a trace, every phase, per-instance
	// step, and kernel call below becomes a span under one batch root.
	// With no trace attached all of this is nil no-ops (zero allocations).
	batchTr, ctx := trace.Child(ctx, "vc.batch")
	batchTr.WithArg("instances", int64(len(inputs)))
	defer batchTr.End()

	// Both ends share one program-dependent precomputation: it is immutable,
	// and building it is not part of the verifier's per-batch setup.
	preTr := trace.Start(ctx, "vc.preprocess")
	pre, err := PreprocessBackend(prog, cfg.backend())
	preTr.End()
	if err != nil {
		return nil, err
	}
	setupSpan := reg.StartSpan(MetricSpanSetup)
	setupTr, setupCtx := trace.Child(ctx, "vc.setup")
	verifier, err := NewVerifierPre(setupCtx, prog, cfg, pre)
	if err != nil {
		return nil, err
	}
	prover, err := NewProverPre(prog, cfg, pre)
	if err != nil {
		return nil, err
	}
	if err := prover.HandleCommitRequest(verifier.Setup()); err != nil {
		return nil, err
	}
	setupTr.End()
	// The labeled per-phase view: same wall-clock numbers as the vc.* span
	// histograms, broken out by {phase, backend} for per-tenant attribution.
	phases := reg.HistogramVec(MetricPhase, LabelPhase, LabelBackend)
	backend := verifier.Backend()
	phases.With("setup", backend).Observe(setupSpan.End())

	workers := cfg.Workers
	if workers < 1 {
		workers = 1
	}
	beta := len(inputs)
	// Small batches can't fill the pool with instance-level parallelism
	// alone; give each Commit's inner kernel the leftover workers.
	prover.SetKernelWorkers(workers / beta)
	res := &BatchResult{
		Accepted:    make([]bool, beta),
		Reasons:     make([]string, beta),
		Outputs:     make([][]*big.Int, beta),
		ProverTimes: make([]ProverTimes, beta),
		Metrics:     BatchMetrics{Instances: beta, Workers: workers, Setup: verifier.SetupDuration()},
	}
	commitments := make([]*Commitment, beta)
	states := make([]*InstanceState, beta)
	responses := make([]*Response, beta)

	// Stage 1 (parallel, barrier): solve, build proofs, commit. The barrier
	// is soundness-critical — the query seed is revealed only after every
	// instance's commitment exists (binding; §2.2).
	proverStart := time.Now()
	commitSpan := reg.StartSpan(MetricSpanCommit)
	commitTr, commitCtx := trace.Child(ctx, "vc.commit")
	defer commitTr.End()
	if err := ForEach(ctx, beta, workers, func(i int) error {
		isp, ictx := trace.Child(commitCtx, "prover.commit")
		isp.WithArg("instance", int64(i))
		defer isp.End()
		cm, st, err := prover.Commit(ictx, inputs[i])
		if err != nil {
			return fmt.Errorf("instance %d: %w", i, err)
		}
		if testHookAfterCommit != nil {
			testHookAfterCommit(i, cm)
		}
		commitments[i], states[i] = cm, st
		return nil
	}); err != nil {
		return nil, err
	}
	commitTr.End()
	res.Metrics.Commit = commitSpan.End()
	phases.With("commit", backend).Observe(res.Metrics.Commit)

	// Stage 2: the verifier reveals queries only after all commitments.
	if testHookPreDecommit != nil {
		testHookPreDecommit()
	}
	decommitSpan := reg.StartSpan(MetricSpanDecommit)
	decommitTr := trace.Start(ctx, "vc.decommit")
	defer decommitTr.End()
	dec, err := verifier.Decommit()
	if err != nil {
		return nil, err
	}
	if err := prover.HandleDecommit(dec); err != nil {
		return nil, err
	}
	decommitTr.End()
	res.Metrics.Decommit = decommitSpan.End()
	phases.With("decommit", backend).Observe(res.Metrics.Decommit)

	// Stages 3+4: answer queries and verify. The pipelined path streams
	// each responded instance through a bounded channel into a parallel
	// verification stage, overlapping prover answers with verifier checks;
	// the serial path (NoPipeline) preserves the pre-pipeline behavior —
	// respond everything, then verify in one loop — as an ablation and
	// equivalence reference.
	overlapStart := time.Now()
	respondTr, respondCtx := trace.Child(ctx, "vc.respond")
	defer respondTr.End()
	respond := func(i int) error {
		isp := trace.Start(respondCtx, "prover.respond").WithArg("instance", int64(i))
		defer isp.End()
		r, err := prover.Respond(ctx, states[i])
		if err != nil {
			return fmt.Errorf("instance %d: %w", i, err)
		}
		responses[i] = r
		return nil
	}
	verifyOne := func(i int) {
		vsp := trace.Start(ctx, "vc.verify").WithArg("instance", int64(i))
		defer vsp.End()
		t0 := time.Now()
		ok, reason := verifier.VerifyInstance(ctx, inputs[i], commitments[i], responses[i])
		d := time.Since(t0)
		reg.Histogram(MetricSpanVerify).Observe(d)
		phases.With("verify", backend).Observe(d)
		atomic.AddInt64((*int64)(&res.Metrics.VerifyTotal), int64(d))
		res.Accepted[i] = ok
		res.Reasons[i] = reason
		res.Outputs[i] = commitments[i].Output
	}

	if cfg.NoPipeline {
		respondSpan := reg.StartSpan(MetricSpanRespond)
		if err := ForEach(ctx, beta, workers, respond); err != nil {
			return nil, err
		}
		respondTr.End()
		res.Metrics.Respond = respondSpan.End()
		phases.With("respond", backend).Observe(res.Metrics.Respond)
		res.Metrics.ProverWall = time.Since(proverStart)
		for i := range inputs {
			verifyOne(i)
		}
	} else {
		ready := make(chan int, 2*workers)
		var vwg sync.WaitGroup
		for w := 0; w < workers; w++ {
			vwg.Add(1)
			go func() {
				defer vwg.Done()
				for i := range ready {
					if ctx.Err() != nil {
						continue // drain without verifying; the batch errors out
					}
					verifyOne(i)
				}
			}()
		}
		respondSpan := reg.StartSpan(MetricSpanRespond)
		rerr := ForEach(ctx, beta, workers, func(i int) error {
			if err := respond(i); err != nil {
				return err
			}
			select {
			case ready <- i:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		})
		respondTr.End()
		res.Metrics.Respond = respondSpan.End()
		phases.With("respond", backend).Observe(res.Metrics.Respond)
		res.Metrics.ProverWall = time.Since(proverStart)
		close(ready)
		vwg.Wait()
		if rerr != nil {
			return nil, rerr
		}
	}
	res.Metrics.RespondVerify = time.Since(overlapStart)
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	for i := range inputs {
		res.ProverTimes[i] = states[i].Times
	}
	res.Metrics.Total = batchSpan.End()
	phases.With("batch", backend).Observe(res.Metrics.Total)
	reg.Counter(MetricBatches).Inc()
	reg.Counter(MetricBackendBatches + verifier.Backend()).Inc()
	reg.Counter(MetricInstances).Add(int64(beta))
	for _, ok := range res.Accepted {
		if !ok {
			reg.Counter(MetricRejected).Inc()
		}
	}
	return res, nil
}

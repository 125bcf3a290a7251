package vc

import (
	"context"
	"math/big"
	"time"

	"zaatar/internal/compiler"
	"zaatar/internal/obs/trace"
)

// BatchMetrics is the structured per-phase measurement record for one
// batch, as Drive saw it from the verifier's side. The same phases are
// aggregated across batches in the vc.phase histogram vector; this struct
// is the single-batch view that the figures and the -stats output consume.
type BatchMetrics struct {
	// Instances is the batch size β; Workers the verifier's pool size (and,
	// in process, the prover's).
	Instances int
	Workers   int

	// Setup is the verifier's amortized query/key construction time.
	Setup time.Duration
	// Commit is the wall-clock of the commit phase: the prover solves,
	// builds proofs and commits, parallel across instances, and every
	// commitment is back before the barrier.
	Commit time.Duration
	// Decommit is building the decommit message (only after every
	// commitment; the soundness barrier).
	Decommit time.Duration
	// Respond is the wall-clock of the respond phase: the prover regenerates
	// the queries and answers them, streaming finished instances into
	// verification.
	Respond time.Duration
	// RespondVerify is the combined wall-clock of the overlapped respond
	// and verify phases — less than Respond + VerifyTotal.
	RespondVerify time.Duration
	// VerifyTotal is the summed per-instance verification time
	// (consistency + PCP checks) across the batch.
	VerifyTotal time.Duration
	// ProverWall spans commit start to the last response — with enough
	// workers, close to one instance's latency (§5.2, Figure 6).
	ProverWall time.Duration
	// Total is the whole RunBatch wall-clock (zero outside RunBatch).
	Total time.Duration
}

// Metric names exported to the obs registry by Drive (and RunBatch),
// documented in docs/PROTOCOL.md §7.
const (
	MetricBatches   = "vc.batches"   // counter{backend}: batches driven (a farm shard counts as one)
	MetricInstances = "vc.instances" // counter: instances proved
	MetricRejected  = "vc.rejected"  // counter: instances rejected
	// MetricPhase is the labeled per-phase histogram vector: one series per
	// {phase, backend} pair, phase ∈ {setup, commit, decommit, respond,
	// verify, batch}; verify is per instance, the rest per batch.
	MetricPhase = "vc.phase"
)

// Label keys of the MetricPhase and MetricBatches vectors (see
// docs/PROTOCOL.md §7.1).
const (
	LabelPhase   = "phase"
	LabelBackend = "backend"
)

// BatchResult aggregates one in-process batch's verdict and measurements.
type BatchResult struct {
	Verdict
	// ProverTimes decomposes each instance's prover cost (Figure 5).
	ProverTimes []ProverTimes
}

// RunBatch drives the full protocol in process for a batch of instances of
// one computation: one verifier, one prover spreading its work over
// cfg.Workers goroutines (the paper's distributed prover; Figure 6), and
// Drive between them over a local link. The whole call is the vc.batch
// phase. Cancelling ctx aborts promptly between per-instance steps and
// surfaces ctx.Err().
func RunBatch(ctx context.Context, prog *compiler.Program, cfg Config, inputs [][]*big.Int) (*BatchResult, error) {
	if len(inputs) == 0 {
		return nil, errEmptyBatch
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// If the caller's context carries a trace, every phase, per-instance
	// step, and kernel call below becomes a span under one batch root.
	// With no trace attached the spans are nil no-ops.
	total, ctx := phase(ctx, cfg.registry(), cfg.backend(), "batch")
	defer total.tr.End() // error paths: close the span, observe nothing
	total.tr.WithArg("instances", int64(len(inputs)))

	// Both ends share one program-dependent precomputation: it is immutable,
	// and building it is not part of the verifier's per-batch setup.
	preTr := trace.Start(ctx, "vc.preprocess")
	pre, err := PreprocessBackend(prog, cfg.backend())
	preTr.End()
	if err != nil {
		return nil, err
	}
	verifier, err := NewVerifierPre(ctx, prog, cfg, pre)
	if err != nil {
		return nil, err
	}
	prover, err := NewProverPre(prog, cfg, pre)
	if err != nil {
		return nil, err
	}
	link := &localLink{p: prover, workers: cfg.Workers}
	v, err := Drive(ctx, verifier, link, inputs, cfg.Workers)
	if err != nil {
		return nil, err
	}
	res := &BatchResult{Verdict: *v, ProverTimes: make([]ProverTimes, len(inputs))}
	for i, st := range link.states {
		res.ProverTimes[i] = st.Times
	}
	res.Metrics.Total = total.end()
	return res, nil
}

// localLink is the in-process ProverLink: the prover's batch routines,
// called directly, keeping each instance's state between the phases.
type localLink struct {
	p       *Prover
	workers int
	states  []*InstanceState
}

func (l *localLink) Commit(ctx context.Context, req *CommitRequest, inputs [][]*big.Int) ([]*Commitment, error) {
	cms, states, err := l.p.CommitBatch(ctx, req, inputs, l.workers)
	l.states = states
	return cms, err
}

func (l *localLink) Respond(ctx context.Context, dec *DecommitRequest, emit func(int, *Response)) error {
	return l.p.RespondBatch(ctx, dec, l.states, l.workers, emit)
}

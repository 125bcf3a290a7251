// Package zaatar is a verified-computation library reproducing the system
// of "Resolving the conflict between generality and plausibility in
// verified computation" (Setty, Braun, Vu, Blumberg, Parno, Walfish —
// EuroSys 2013).
//
// A verifier outsources a computation Ψ, written in a small C-like language,
// to an untrusted prover. The prover returns the output y together with an
// interactive argument that y = Ψ(x); the argument composes a linear PCP
// with a homomorphic-encryption-based linear commitment. Two proof encodings
// are provided:
//
//   - Zaatar (the paper's contribution): a QAP-based linear PCP whose proof
//     vector is linear (|Z| + |C|) in the computation size; and
//   - Ginger (the baseline): the classical PCP with a quadratic
//     (|Z| + |Z|²) proof vector.
//
// Quick start:
//
//	prog, err := zaatar.Compile(`
//	    input x : int32;
//	    output y : int32;
//	    y = x - 3;
//	`)
//	res, err := zaatar.Run(prog, [][]*big.Int{{big.NewInt(10)}})
//	// res.Accepted[0] == true, res.Outputs[0][0].Int64() == 7
//
// Run drives a whole batch in-process. For a real deployment split the two
// ends over the network: Serve runs a long-lived multi-tenant prover
// service on a listener, and Dial connects a verifier-side Client to one
// prover, pushing many batches over one kept-alive connection (wire
// protocol v3, the only dialect spoken). DialFarm returns the same Client
// over several provers, sharding each batch across them; a Dial'ed Client
// is the same farm over one prover.
// cmd/zaatar-server and cmd/zaatar-client are thin wrappers over these
// calls. Lower still, NewVerifier and NewProver expose the raw phases,
// moving the exported message types (CommitRequest, Commitment,
// DecommitRequest, Response) across any transport of your own.
package zaatar

import (
	"context"
	"fmt"
	"log/slog"
	"math/big"
	"time"

	"zaatar/internal/compiler"
	"zaatar/internal/costmodel"
	"zaatar/internal/elgamal"
	"zaatar/internal/field"
	"zaatar/internal/obs"
	"zaatar/internal/pcp"
	"zaatar/internal/vc"
)

// Program is a compiled computation. See Compile.
type Program = compiler.Program

// Protocol message types, for callers that run the phases over a transport.
type (
	// CommitRequest opens a batch (verifier → prover).
	CommitRequest = vc.CommitRequest
	// Commitment is the per-instance commit reply (prover → verifier).
	Commitment = vc.Commitment
	// DecommitRequest reveals the query seed and consistency points.
	DecommitRequest = vc.DecommitRequest
	// Response carries per-instance query answers (prover → verifier).
	Response = vc.Response
	// InstanceState is the prover's per-instance state between phases.
	InstanceState = vc.InstanceState
	// Result aggregates a batch's outcomes and timings.
	Result = vc.BatchResult
	// Verifier is one batch's verifier; see NewVerifier.
	Verifier = vc.Verifier
	// Prover is one computation's prover; see NewProver.
	Prover = vc.Prover
)

// CompileOption configures compilation (Compile). Options that only affect
// protocol runs do not satisfy it, so passing, say, WithParams to Compile
// is a compile-time error.
type CompileOption interface{ applyCompile(*options) }

// RunOption configures protocol runs (Run, RunContext, NewVerifier,
// NewProver, Dial). Every Option (such as WithField220) also satisfies
// RunOption.
type RunOption interface{ applyRun(*options) }

// Option configures both compilation and protocol runs; it satisfies
// CompileOption and RunOption. Options that affect both phases — today only
// the field choice — must be passed to Compile and Run alike: a program
// compiled over one field cannot be run over another, and Run reports a
// mismatch as an error.
type Option interface {
	CompileOption
	RunOption
}

type options struct {
	field    *field.Field
	fieldSet bool
	cfg      vc.Config
	ioTo     time.Duration
	logger   *slog.Logger
}

// bothOption implements Option; runOption implements only RunOption.
type bothOption func(*options)

func (f bothOption) applyCompile(o *options) { f(o) }
func (f bothOption) applyRun(o *options)     { f(o) }

type runOption func(*options)

func (f runOption) applyRun(o *options) { f(o) }

func buildCompileOptions(opts []CompileOption) options {
	o := options{field: field.F128()}
	for _, fn := range opts {
		fn.applyCompile(&o)
	}
	return o
}

func buildRunOptions(opts []RunOption) options {
	o := options{field: field.F128()}
	for _, fn := range opts {
		fn.applyRun(&o)
	}
	return o
}

// checkField catches a field option passed to a run but not to Compile:
// the program's arithmetic lives in the field it was compiled for, so the
// run must agree. (In earlier releases the run-side field was silently
// ignored, surfacing later as confusing constraint failures.)
func checkField(prog *Program, o options) error {
	if o.fieldSet && prog.Field != o.field {
		return fmt.Errorf("zaatar: program compiled for field %s but run options select %s; pass the same field option to Compile",
			prog.Field.Name(), o.field.Name())
	}
	return nil
}

// WithField220 selects the 220-bit field of §5.1 (larger integer capacity,
// slower arithmetic) instead of the default 128-bit field. It affects both
// compilation and runs; pass it to Compile and to Run (or Dial) alike.
func WithField220() Option {
	return bothOption(func(o *options) { o.field = field.F220(); o.fieldSet = true })
}

// Backend names accepted by WithBackend (besides BackendAuto).
const (
	// BackendZaatar is the QAP-based linear proof encoding (the default).
	BackendZaatar = pcp.BackendZaatar
	// BackendGinger is the quadratic baseline encoding — useful only for
	// comparison; it is restricted to small computations because the proof
	// vector is |Z|².
	BackendGinger = pcp.BackendGinger
	// BackendSumcheck is the sum-check/GKR lane for layered circuits: no
	// commitment cryptography, so the prover runs orders of magnitude
	// faster, but only programs that stratify (pure add/mul arithmetic,
	// no comparisons or division advice) are accepted.
	BackendSumcheck = pcp.BackendSumcheck
	// BackendAuto defers the choice to the cost model at run (or dial)
	// time; see RecommendBackend.
	BackendAuto = "auto"
)

// WithBackend selects the proof backend by name: BackendZaatar,
// BackendGinger, BackendSumcheck, or BackendAuto to let the cost model pick
// per program. On a Dial'ed client the chosen backend leads the offer sent
// to the server; BackendAuto additionally appends BackendZaatar as a
// fallback so a server built without the recommended lane can still serve
// the session.
func WithBackend(name string) RunOption {
	return runOption(func(o *options) { o.cfg.Backend = name })
}

// Backends lists the proof backends compiled into this build, sorted by
// name.
func Backends() []string { return pcp.Names() }

// WithParams overrides the PCP repetition counts (ρ_lin, ρ). The default is
// the paper's production setting (20, 8) with soundness error below
// 9.6×10⁻⁷; tests use smaller values for speed.
func WithParams(rhoLin, rho int) RunOption {
	return runOption(func(o *options) { o.cfg.Params = pcp.Params{RhoLin: rhoLin, Rho: rho} })
}

// WithWorkers sets the prover's parallelism over a batch (the paper's
// distributed/GPU prover, Figure 6). On a Dial'ed client it sets the
// verifier-side parallelism over per-instance checks.
func WithWorkers(n int) RunOption {
	return runOption(func(o *options) { o.cfg.Workers = n })
}

// WithSeed fixes the verifier's randomness for reproducible runs. Do not
// use a fixed seed when soundness matters.
func WithSeed(seed []byte) RunOption {
	return runOption(func(o *options) { o.cfg.Seed = append([]byte(nil), seed...) })
}

// WithoutCommitment disables the cryptographic commitment, leaving the bare
// PCP. Orders of magnitude faster, but sound only against provers that
// honestly fix a linear proof function; intended for experiments.
func WithoutCommitment() RunOption {
	return runOption(func(o *options) { o.cfg.NoCommitment = true })
}

// WithGroup overrides the ElGamal group (e.g. a test group over a small
// field).
func WithGroup(g *elgamal.Group) RunOption {
	return runOption(func(o *options) { o.cfg.Group = g })
}

// WithMetrics directs the run's counters and per-phase latency histograms
// into r instead of the process-wide default registry. See Metrics for the
// default registry and the exported metric names in the vc package.
func WithMetrics(r *obs.Registry) RunOption {
	return runOption(func(o *options) { o.cfg.Obs = r })
}

// WithIOTimeout sets the per-message read/write deadline on a Dial'ed
// client's connections; in-process runs ignore it.
func WithIOTimeout(d time.Duration) RunOption {
	return runOption(func(o *options) { o.ioTo = d })
}

// WithLogger installs a structured logger on a Dial'ed client: one record
// per session event (negotiation, each batch) carrying the negotiated
// backend, the program hash, and — when the context carries a trace (see
// zaatar-client -trace) — trace_id/span_id fields that join the exported
// Perfetto trace. In-process runs ignore it. By default the client is
// silent.
func WithLogger(l *slog.Logger) RunOption {
	return runOption(func(o *options) { o.logger = l })
}

// Metrics returns the process-wide metrics registry that protocol runs
// record into unless WithMetrics overrides it. Its WritePrometheus and
// Handler render it in the Prometheus text exposition format.
func Metrics() *obs.Registry { return obs.Default() }

// DefaultParams returns the production PCP parameters (ρ_lin = 20, ρ = 8).
func DefaultParams() pcp.Params { return pcp.DefaultParams() }

// Compile translates a mini-SFDL program (see the language reference in the
// README) into constraint systems and a witness solver.
func Compile(src string, opts ...CompileOption) (*Program, error) {
	o := buildCompileOptions(opts)
	return compiler.Compile(o.field, src)
}

// Run drives the full batched protocol in-process: one verifier, one prover
// (with the configured worker parallelism), len(batch) instances. It
// returns per-instance acceptance, outputs, and timing decompositions.
func Run(prog *Program, batch [][]*big.Int, opts ...RunOption) (*Result, error) {
	return RunContext(context.Background(), prog, batch, opts...)
}

// RunContext is Run with cancellation: the protocol engine checks ctx
// between per-instance steps and aborts promptly with ctx.Err() when it is
// cancelled.
func RunContext(ctx context.Context, prog *Program, batch [][]*big.Int, opts ...RunOption) (*Result, error) {
	o := buildRunOptions(opts)
	if err := checkField(prog, o); err != nil {
		return nil, err
	}
	resolveBackend(prog, &o)
	return vc.RunBatch(ctx, prog, o.cfg, batch)
}

// NewVerifier creates one batch's verifier for a compiled program.
func NewVerifier(prog *Program, opts ...RunOption) (*Verifier, error) {
	o := buildRunOptions(opts)
	if err := checkField(prog, o); err != nil {
		return nil, err
	}
	resolveBackend(prog, &o)
	return vc.NewVerifier(prog, o.cfg)
}

// NewProver creates a prover for a compiled program.
func NewProver(prog *Program, opts ...RunOption) (*Prover, error) {
	o := buildRunOptions(opts)
	if err := checkField(prog, o); err != nil {
		return nil, err
	}
	resolveBackend(prog, &o)
	return vc.NewProver(prog, o.cfg)
}

// resolveBackend replaces the BackendAuto placeholder with the cost model's
// pick for this program; concrete names pass through untouched for vc to
// validate.
func resolveBackend(prog *Program, o *options) {
	if o.cfg.Backend == BackendAuto {
		o.cfg.Backend = RecommendBackend(prog)
	}
}

// RecommendBackend picks the cheapest proof backend for a compiled program:
// the sum-check lane when the circuit stratifies and its field-only prover
// undercuts the cryptographic lanes at the §5.1 cost ratios, otherwise
// whichever of Zaatar and Ginger has the smaller proof vector. This is what
// BackendAuto resolves to.
func RecommendBackend(prog *Program) string {
	return costmodel.RecommendBackend(prog.Field, prog.Ginger, prog.Quad)
}

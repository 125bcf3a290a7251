package vc

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"time"

	"zaatar/internal/commit"
	"zaatar/internal/compiler"
	"zaatar/internal/elgamal"
	"zaatar/internal/field"
	"zaatar/internal/obs/trace"
	"zaatar/internal/par"
	"zaatar/internal/pcp"
)

// ProverTimes decomposes one instance's prover cost, mirroring the columns
// of Figure 5.
type ProverTimes struct {
	Solve      time.Duration // execute Ψ and solve the constraints
	ConstructU time.Duration // build the proof vector (H(t) for Zaatar, z⊗z for Ginger)
	Crypto     time.Duration // homomorphic commitment evaluation
	Answer     time.Duration // PCP + consistency query responses
}

// E2E is the total prover time for the instance.
func (t ProverTimes) E2E() time.Duration {
	return t.Solve + t.ConstructU + t.Crypto + t.Answer
}

// Prover holds a prover's batch state for one computation.
type Prover struct {
	Prog *compiler.Program
	Cfg  Config

	bk  pcp.Backend
	pre pcp.Precomputed
	req *CommitRequest

	// prepR1/prepR2 cache the Montgomery preparation of the batch's Enc(r)
	// vectors (commit.Prepare): built once per HandleCommitRequest, reused
	// by every instance's Commit.
	prepR1, prepR2 *elgamal.PreparedVector

	// query regeneration state after decommit
	queries pcp.Queries
	t1, t2  []field.Element
}

// InstanceState carries a single instance's proof between the commit and
// respond phases.
type InstanceState struct {
	U1, U2 []field.Element // the two proof vectors
	Times  ProverTimes
}

// Precomputation holds the backend-dependent prover-side state that
// depends only on the compiled program, not on a batch: for Zaatar the QAP
// encoding (sparse rows and the evaluation-basis tables), for sum-check the
// layered circuit. It is immutable and safe to share between concurrent
// provers and verifiers, so a long-lived service can build it once per
// program and hand it to every session (transport.Service does exactly
// that) and RunBatch builds it once for both ends. Keyed by backend name so
// a cache hit for one backend never leaks into a session negotiating
// another.
type Precomputation struct {
	Backend string

	bk  pcp.Backend
	pre pcp.Precomputed
}

// PreprocessBackend builds the prover-side precomputation for a program
// under the named backend.
func PreprocessBackend(prog *compiler.Program, backend string) (*Precomputation, error) {
	bk, err := pcp.Lookup(backend)
	if err != nil {
		return nil, err
	}
	pre, err := bk.Precompute(prog)
	if err != nil {
		return nil, err
	}
	return &Precomputation{Backend: bk.Name(), bk: bk, pre: pre}, nil
}

// NewProver prepares the prover for a computation.
func NewProver(prog *compiler.Program, cfg Config) (*Prover, error) {
	return NewProverPre(prog, cfg, nil)
}

// NewProverPre is NewProver reusing a cached Precomputation; pre may be nil
// (or built for a different backend), in which case the precomputation is
// performed here.
func NewProverPre(prog *compiler.Program, cfg Config, pre *Precomputation) (*Prover, error) {
	pre, err := pre.orPreprocess(prog, cfg)
	if err != nil {
		return nil, err
	}
	return &Prover{Prog: prog, Cfg: cfg, bk: pre.bk, pre: pre.pre}, nil
}

// orPreprocess returns p if it was built for cfg's backend, and a fresh
// precomputation otherwise (p may be nil).
func (p *Precomputation) orPreprocess(prog *compiler.Program, cfg Config) (*Precomputation, error) {
	if p != nil && p.Backend == cfg.backend() {
		return p, nil
	}
	return PreprocessBackend(prog, cfg.backend())
}

// HandleCommitRequest stores the batch's encrypted commitment vectors and
// prepares them for the per-instance commitments. The request may come from
// an untrusted verifier over the wire, so the group parameters and every
// ciphertext component are checked before they reach the Montgomery kernels
// (whose preconditions are enforced by panic); a malformed request is
// rejected with an error and leaves the prover with no open batch.
func (p *Prover) HandleCommitRequest(req *CommitRequest) error {
	p.req, p.prepR1, p.prepR2 = nil, nil, nil
	if req != nil && (len(req.EncR1) > 0 || len(req.EncR2) > 0) {
		if req.PK == nil {
			return errors.New("vc: commit request carries ciphertexts but no public key")
		}
		group := req.PK.Group
		if err := group.Validate(); err != nil {
			return fmt.Errorf("vc: commit request: %w", err)
		}
		if group.Q.Cmp(p.Prog.Field.Modulus()) != 0 {
			return errors.New("vc: commit request group order does not match the program field")
		}
		if err := group.CheckCiphertexts(req.EncR1); err != nil {
			return fmt.Errorf("vc: commit request Enc(r1): %w", err)
		}
		if err := group.CheckCiphertexts(req.EncR2); err != nil {
			return fmt.Errorf("vc: commit request Enc(r2): %w", err)
		}
		p.prepR1 = commit.Prepare(group, req.EncR1)
		p.prepR2 = commit.Prepare(group, req.EncR2)
	}
	p.req = req
	return nil
}

// Commit executes the computation on one instance's inputs and commits to
// the resulting proof. This performs the first three phases of Figure 5:
// solving the constraints, constructing the proof vector, and the
// cryptographic commitment. A cancelled ctx aborts before the work starts;
// the per-instance steps themselves are not interruptible.
func (p *Prover) Commit(ctx context.Context, inputs []*big.Int) (*Commitment, *InstanceState, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	if p.req == nil {
		return nil, nil, errPhase
	}
	st := &InstanceState{}
	cm := &Commitment{}
	f := p.Prog.Field

	start := time.Now()
	solveTr := trace.Start(ctx, "prover.solve")
	var w []field.Element
	var err error
	cm.Output, w, err = p.bk.Solve(p.pre, p.Prog, inputs)
	solveTr.End()
	if err != nil {
		return nil, nil, err
	}
	st.Times.Solve = time.Since(start)

	// Construct the proof vector. For Zaatar the dominant work is the NTT
	// polynomial division computing H(t); for Ginger it is the z⊗z tensor;
	// for sum-check the witness is the layered evaluation itself and the
	// real proof is built at answer time (it depends on the batch salt).
	start = time.Now()
	buildTr := trace.Start(ctx, p.bk.ConstructKernel())
	proof, err := p.bk.BuildProof(p.pre, w)
	if err != nil {
		buildTr.End()
		return nil, nil, err
	}
	st.U1, st.U2 = proof.U1, proof.U2
	buildTr.WithArg("u1", int64(len(st.U1))).WithArg("u2", int64(len(st.U2))).End()
	st.Times.ConstructU = time.Since(start)

	start = time.Now()
	if len(p.req.EncR1) > 0 {
		cryptoTr, cctx := trace.Child(ctx, "prover.crypto")
		defer cryptoTr.End()
		// One goroutine per kernel: the batch routines already run one
		// Commit per instance concurrently.
		group := p.req.PK.Group
		k1 := trace.Start(cctx, "kernel.multiexp").WithArg("n", int64(len(st.U1)))
		cm.C1, err = commit.CommitPrepared(group, f, p.prepR1, st.U1, 1)
		k1.End()
		if err != nil {
			return nil, nil, err
		}
		k2 := trace.Start(cctx, "kernel.multiexp").WithArg("n", int64(len(st.U2)))
		cm.C2, err = commit.CommitPrepared(group, f, p.prepR2, st.U2, 1)
		k2.End()
		if err != nil {
			return nil, nil, err
		}
		cryptoTr.End()
	}
	st.Times.Crypto = time.Since(start)
	return cm, st, nil
}

// HandleDecommit regenerates the batch query state from the revealed seed.
func (p *Prover) HandleDecommit(req *DecommitRequest) error {
	if req == nil {
		return errPhase
	}
	q, err := queriesFromSeed(p.bk, p.pre, p.Cfg.params(), req.Seed)
	if err != nil {
		return err
	}
	p.queries = q
	p.t1, p.t2 = req.T1, req.T2
	return nil
}

// Respond answers every query (and the consistency points) for one
// committed instance — the "answer queries" phase of Figure 5. A cancelled
// ctx aborts before the work starts.
func (p *Prover) Respond(ctx context.Context, st *InstanceState) (*Response, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if p.queries == nil {
		return nil, errPhase
	}
	f := p.Prog.Field
	start := time.Now()
	r1, r2, err := p.queries.Answer(&pcp.Proof{U1: st.U1, U2: st.U2})
	if err != nil {
		return nil, err
	}
	resp := &Response{R1: r1, R2: r2}
	if p.t1 != nil {
		if len(p.t1) != len(st.U1) || len(p.t2) != len(st.U2) {
			return nil, errors.New("vc: consistency point length mismatch")
		}
		resp.T1 = f.InnerProduct(p.t1, st.U1)
		resp.T2 = f.InnerProduct(p.t2, st.U2)
	}
	st.Times.Answer = time.Since(start)
	return resp, nil
}

// CommitBatch opens a batch with req and commits to every instance over a
// pool of workers goroutines, one prover.commit span per instance. It is
// the prover half of the commit phase on every link — in process and
// behind the wire service alike — and returns the per-instance states
// RespondBatch continues from.
func (p *Prover) CommitBatch(ctx context.Context, req *CommitRequest, inputs [][]*big.Int, workers int) ([]*Commitment, []*InstanceState, error) {
	if err := p.HandleCommitRequest(req); err != nil {
		return nil, nil, err
	}
	cms := make([]*Commitment, len(inputs))
	states := make([]*InstanceState, len(inputs))
	err := par.ForEach(ctx, len(inputs), workers, func(i int) error {
		sp, ictx := trace.Child(ctx, "prover.commit")
		sp.WithArg("instance", int64(i))
		defer sp.End()
		cm, st, err := p.Commit(ictx, inputs[i])
		if err != nil {
			return fmt.Errorf("instance %d: %w", i, err)
		}
		cms[i], states[i] = cm, st
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return cms, states, nil
}

// RespondBatch regenerates the batch's queries from dec and answers them
// for every committed instance over a pool of workers goroutines, one
// prover.respond span per instance, handing each response to emit as soon
// as it is ready (emit must be safe for concurrent use).
func (p *Prover) RespondBatch(ctx context.Context, dec *DecommitRequest, states []*InstanceState, workers int, emit func(i int, r *Response)) error {
	if err := p.HandleDecommit(dec); err != nil {
		return err
	}
	return par.ForEach(ctx, len(states), workers, func(i int) error {
		sp := trace.Start(ctx, "prover.respond").WithArg("instance", int64(i))
		r, err := p.Respond(ctx, states[i])
		sp.End()
		if err != nil {
			return fmt.Errorf("instance %d: %w", i, err)
		}
		emit(i, r)
		return nil
	})
}

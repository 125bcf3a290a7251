package vc

import (
	"context"
	"crypto/rand"
	"fmt"
	"math/big"
	"time"

	"zaatar/internal/commit"
	"zaatar/internal/compiler"
	"zaatar/internal/elgamal"
	"zaatar/internal/obs/trace"
	"zaatar/internal/pcp"
)

// Verifier holds one batch's verifier state. Create with NewVerifier; then
// Setup → (collect commitments) → Decommit → VerifyInstance per instance.
type Verifier struct {
	Prog *compiler.Program
	Cfg  Config

	bk      pcp.Backend
	pre     pcp.Precomputed
	queries pcp.Queries
	seed    []byte

	sk       *elgamal.SecretKey
	key1     *commit.Key
	key2     *commit.Key
	sec1     commit.Secrets
	sec2     commit.Secrets
	setupDur time.Duration

	decommitBuilt bool
}

// NewVerifier compiles the verifier's batch state: the PCP queries (derived
// from a seed) and, unless disabled, the commitment keys (whose secrets are
// drawn from crypto/rand, independently of the seed). This is the
// verifier's amortized per-batch setup — the "construct queries" rows of
// Figure 3.
func NewVerifier(prog *compiler.Program, cfg Config) (*Verifier, error) {
	return NewVerifierPre(context.Background(), prog, cfg, nil)
}

// NewVerifierPre is NewVerifier with a context, so a trace attached to ctx
// decomposes setup into query construction and commitment-key generation,
// reusing a Precomputation as NewProverPre does: pre may be nil (or built
// for a different backend), in which case it is computed here.
func NewVerifierPre(ctx context.Context, prog *compiler.Program, cfg Config, pre *Precomputation) (*Verifier, error) {
	start := time.Now()
	pre, err := pre.orPreprocess(prog, cfg)
	if err != nil {
		return nil, err
	}
	v := &Verifier{Prog: prog, Cfg: cfg, bk: pre.bk, pre: pre.pre}
	if v.seed, err = freshSeed(cfg); err != nil {
		return nil, err
	}
	qTr := trace.Start(ctx, "verifier.queries")
	if v.queries, err = queriesFromSeed(v.bk, v.pre, cfg.params(), v.seed); err != nil {
		return nil, err
	}
	qTr.End()

	if v.bk.NeedsCommitment() && !cfg.NoCommitment {
		if err := v.genKeys(ctx); err != nil {
			return nil, err
		}
	}
	v.setupDur = time.Since(start)
	return v, nil
}

// genKeys draws a fresh ElGamal key pair and fresh secret commitment
// vectors for both oracles. The randomness comes from crypto/rand — never
// from the query seed, even when Config.Seed pins one: the seed is revealed
// to the prover at decommit time, so anything derived from it is public
// from the prover's perspective and could not hide r or the ElGamal secret
// key. The key is per-batch state; see Reseed for why it cannot be reused.
func (v *Verifier) genKeys(ctx context.Context) error {
	group, err := v.Cfg.group(v.Prog.Field)
	if err != nil {
		return err
	}
	if v.sk, err = group.GenerateKey(rand.Reader); err != nil {
		return err
	}
	n1, n2 := v.oracleLens()
	kw := v.Cfg.Workers
	if kw < 1 {
		kw = 1
	}
	k1 := trace.Start(ctx, "kernel.fixedbase.encrypt_r").WithArg("n", int64(n1))
	v.key1, err = commit.NewKeyParallel(v.Prog.Field, group, v.sk, n1, rand.Reader, kw)
	k1.End()
	if err != nil {
		return err
	}
	k2 := trace.Start(ctx, "kernel.fixedbase.encrypt_r").WithArg("n", int64(n2))
	v.key2, err = commit.NewKeyParallel(v.Prog.Field, group, v.sk, n2, rand.Reader, kw)
	k2.End()
	return err
}

// Reseed rolls the verifier's per-batch state forward for the next batch
// of a kept-alive session: fresh query randomness and — unless commitments
// are disabled — a fresh commitment key (new ElGamal key pair, new secret
// vectors r). Re-keying is not optional: each batch's Decommit reveals
// t = r + Σ αᵢqᵢ, and two such reveals over the same r form a linear
// system (the q's are public once both seeds are out) that a malicious
// prover can solve for the α's and r, after which the commitments no
// longer bind. The seed semantics match Config.Seed and affect only the
// queries: empty draws fresh query randomness from crypto/rand, and the
// key material always comes from crypto/rand. Binding then holds per batch
// because the new seed is revealed only after that batch's commitments
// have been collected. The caller must ship the new Setup() output to the
// prover: the previous batch's commit request is dead.
func (v *Verifier) Reseed(ctx context.Context, seed []byte) error {
	cfg := v.Cfg
	cfg.Seed = seed
	s, err := freshSeed(cfg)
	if err != nil {
		return err
	}
	v.seed = s
	if v.queries, err = queriesFromSeed(v.bk, v.pre, v.Cfg.params(), s); err != nil {
		return err
	}
	v.decommitBuilt = false
	if v.bk.NeedsCommitment() && !v.Cfg.NoCommitment {
		if err := v.genKeys(ctx); err != nil {
			return err
		}
	}
	return nil
}

// Fork creates an independent verifier sharing this one's compiled program,
// backend, and precomputation (the expensive, immutable part of setup) but
// with its own per-batch state: fresh queries from seed (empty = fresh
// randomness, matching Config.Seed semantics) and a fresh commitment key.
// Forks are how a farm coordinator keeps several shards in flight at once —
// each shard is its own batch, so each needs its own key and seed; sharing
// either across shards would break binding exactly like reusing a key
// across batches (see Reseed). The receiver is left untouched.
func (v *Verifier) Fork(ctx context.Context, seed []byte) (*Verifier, error) {
	start := time.Now()
	nv := &Verifier{Prog: v.Prog, Cfg: v.Cfg, bk: v.bk, pre: v.pre}
	if err := nv.Reseed(ctx, seed); err != nil {
		return nil, err
	}
	nv.setupDur = time.Since(start)
	return nv, nil
}

// oracleLens returns the two proof-vector lengths |u₁|, |u₂| (zero for
// transcript lanes, which commit to no linear oracle).
func (v *Verifier) oracleLens() (int, int) {
	return v.bk.OracleLens(v.pre)
}

// ProofVectorLen returns |u| = |u₁| + |u₂| for the configured backend.
func (v *Verifier) ProofVectorLen() int {
	a, b := v.oracleLens()
	return a + b
}

// Backend reports the resolved backend name.
func (v *Verifier) Backend() string { return v.bk.Name() }

// SetupDuration reports the time spent in NewVerifier (query + key setup),
// the amortized cost that determines break-even batch sizes.
func (v *Verifier) SetupDuration() time.Duration { return v.setupDur }

// Setup emits the commit request opening the batch.
func (v *Verifier) Setup() *CommitRequest {
	req := &CommitRequest{}
	if v.key1 != nil {
		req.EncR1 = v.key1.EncR
		req.EncR2 = v.key2.EncR
		req.PK = &v.sk.PublicKey
	}
	return req
}

// Decommit reveals the query seed and consistency points. It must be called
// only after every instance's Commitment has been received; the Verifier
// does not enforce reception ordering across the transport, but calling
// VerifyInstance before Decommit fails.
func (v *Verifier) Decommit() (*DecommitRequest, error) {
	req := &DecommitRequest{Seed: v.seed}
	if v.key1 != nil {
		// The consistency test is only binding if the α's are unpredictable
		// to the prover when it answers, so they are drawn from crypto/rand —
		// never derived from the seed this very request reveals.
		q1, q2 := v.queries.Lists()
		var err error
		if req.T1, v.sec1, err = v.key1.ConsistencyPoint(q1.Base, q1.Sums, rand.Reader); err != nil {
			return nil, err
		}
		if req.T2, v.sec2, err = v.key2.ConsistencyPoint(q2.Base, q2.Sums, rand.Reader); err != nil {
			return nil, err
		}
	}
	v.decommitBuilt = true
	return req, nil
}

// VerifyInstance runs all checks for one instance: the commitment
// consistency test and the PCP tests. inputs are the instance's inputs (the
// verifier knows them; §2.1), and the commitment carries the claimed
// outputs. After Decommit the verifier's state is read-only, so instances
// may be verified concurrently — the pipeline engine's stage 4 does. A
// cancelled ctx rejects without running the checks.
func (v *Verifier) VerifyInstance(ctx context.Context, inputs []*big.Int, cm *Commitment, resp *Response) (bool, string) {
	if err := ctx.Err(); err != nil {
		return false, err.Error()
	}
	if !v.decommitBuilt {
		return false, errPhase.Error()
	}
	if v.bk.NeedsCommitment() {
		q1, q2 := v.queries.Lists()
		if len(resp.R1) != q1.Len() || len(resp.R2) != q2.Len() {
			return false, "response count mismatch"
		}
	}
	// Consistency tests bind the revealed answers to the committed linear
	// functions.
	if v.key1 != nil {
		ok1 := v.key1.VerifyConsistency(cm.C1, v.sec1, commit.Response{Answers: resp.R1, AT: resp.T1})
		if !ok1 {
			return false, "commitment consistency test failed for oracle 1"
		}
		ok2 := v.key2.VerifyConsistency(cm.C2, v.sec2, commit.Response{Answers: resp.R2, AT: resp.T2})
		if !ok2 {
			return false, "commitment consistency test failed for oracle 2"
		}
	}
	io, err := v.Prog.IOValues(inputs, cm.Output)
	if err != nil {
		return false, fmt.Sprintf("bad io: %v", err)
	}
	res := v.queries.Decide(resp.R1, resp.R2, io)
	if !res.OK {
		return false, res.Reason
	}
	return true, ""
}

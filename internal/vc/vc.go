// Package vc implements Zaatar's efficient argument system: the interactive
// protocol of Figures 1 and 2 that composes a linear PCP (internal/pcp) with
// the linear commitment primitive (internal/commit), batched over β
// instances of one computation.
//
// Message flow, per batch:
//
//	V → P  CommitRequest    Enc(r_z), Enc(r_h)           (amortized over β)
//	P → V  Commitment       y, Enc(π_z(r_z)), Enc(π_h(r_h))   (per instance)
//	V → P  DecommitRequest  query seed + consistency points t  (amortized)
//	P → V  Response         π(q_1)..π(q_µ), π(t)              (per instance)
//
// As in [53] Apdx A.3, the decommit message carries a short PRG seed rather
// than the query vectors; the prover regenerates the queries locally, so the
// per-batch network cost is one full-length vector (t) per oracle plus the
// seed. Binding holds because every instance's commitment is collected
// before the seed is revealed.
//
// The driver is backend-agnostic: every proof encoding — the QAP-based
// Zaatar PCP, Ginger's classical PCP, and the GKR/sum-check lane — plugs in
// behind the pcp.Backend interface, selected by name through one Config
// field. Backends that need no commitment (NeedsCommitment() == false) skip
// the cryptographic phases entirely: the commit request is empty, the
// commitment carries only the claimed outputs, and the response is the
// backend's transcript proof.
//
// Drive is the one protocol engine: it sequences a batch over a
// ProverLink — the in-process prover (RunBatch), one wire connection, or
// one farm worker — and verifies on a worker pool overlapped with the
// prover's answers. The prover half of every link is Prover.CommitBatch
// and Prover.RespondBatch, which spread a batch over a worker pool (the
// paper's GPU/cluster parallelism; Figure 6).
package vc

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"math/big"

	"zaatar/internal/elgamal"
	"zaatar/internal/field"
	"zaatar/internal/obs"
	"zaatar/internal/pcp"
	"zaatar/internal/prg"
)

// Config controls one verifier/prover pair.
type Config struct {
	// Backend names the proof backend (see pcp.Names); empty means
	// pcp.BackendZaatar.
	Backend string
	// Params are the PCP repetition counts. Zero value means
	// pcp.DefaultParams().
	Params pcp.Params
	// NoCommitment disables the cryptographic commitment, leaving only the
	// PCP (for ablations and fast tests); the protocol is then only sound
	// against provers that honestly fix a linear function.
	NoCommitment bool
	// Workers is the parallelism over a batch's instances — RunBatch's
	// prover and verifier pools — and of the verifier's key generation;
	// 0 means 1.
	Workers int
	// Seed fixes the verifier's query randomness (for reproducible
	// experiments); empty means fresh randomness from crypto/rand. It
	// covers only the PCP queries — which the protocol later reveals to
	// the prover — never the commitment-key secrets or the consistency
	// α's, which always come from crypto/rand.
	Seed []byte
	// Group overrides the ElGamal group (tests with small fields); nil
	// selects the production group for the program's field.
	Group *elgamal.Group
	// Obs receives the driver's counters and phase spans; nil uses
	// obs.Default().
	Obs *obs.Registry
}

func (c Config) registry() *obs.Registry {
	if c.Obs != nil {
		return c.Obs
	}
	return obs.Default()
}

func (c Config) params() pcp.Params {
	if c.Params.Rho == 0 && c.Params.RhoLin == 0 {
		return pcp.DefaultParams()
	}
	return c.Params
}

// backend resolves the configured backend name, defaulting to Zaatar.
func (c Config) backend() string {
	if c.Backend != "" {
		return c.Backend
	}
	return pcp.BackendZaatar
}

// CommitRequest opens a batch: the encrypted commitment vectors for the two
// proof oracles. Both vectors are empty for backends that need no
// commitment; the request still opens the batch (phase ordering is what
// binds the prover's outputs before the seed reveal).
type CommitRequest struct {
	EncR1 []elgamal.Ciphertext // for π_z (Zaatar) or π₁ (Ginger)
	EncR2 []elgamal.Ciphertext // for π_h (Zaatar) or π₂ (Ginger)
	// PK lets the prover verify ciphertext well-formedness if desired.
	PK *elgamal.PublicKey
}

// Commitment is the prover's per-instance reply to the commit phase.
type Commitment struct {
	Output []*big.Int
	C1, C2 elgamal.Ciphertext
}

// DecommitRequest reveals the queries (via seed) and consistency points.
type DecommitRequest struct {
	Seed []byte
	T1   []field.Element
	T2   []field.Element
}

// Response carries the prover's per-instance PCP and consistency answers.
type Response struct {
	R1, R2 []field.Element
	T1, T2 field.Element
}

const seedLen = 32

// queriesFromSeed deterministically regenerates the batch's query state.
// Both parties call this with the same seed: for commitment lanes that
// yields the PCP query vectors, for transcript lanes the batch salt.
func queriesFromSeed(bk pcp.Backend, pre pcp.Precomputed, params pcp.Params, seed []byte) (pcp.Queries, error) {
	return bk.Queries(pre, params, prg.NewFromSeed(seed, 1))
}

// group returns the ElGamal group for the configuration.
func (c Config) group(f *field.Field) (*elgamal.Group, error) {
	if c.Group != nil {
		return c.Group, nil
	}
	if g := elgamal.GroupFor(f); g != nil {
		return g, nil
	}
	return nil, fmt.Errorf("vc: no built-in ElGamal group for field %s; set Config.Group", f.Name())
}

// freshSeed returns seed, or fresh crypto/rand bytes when it is empty.
func freshSeed(seed []byte) ([]byte, error) {
	if len(seed) > 0 {
		return seed, nil
	}
	s := make([]byte, seedLen)
	if _, err := io.ReadFull(rand.Reader, s); err != nil {
		return nil, err
	}
	return s, nil
}

var errPhase = errors.New("vc: protocol phase violation")

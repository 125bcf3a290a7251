package pcp

import (
	"fmt"
	"io"
	"math/big"
	"sort"
	"sync"

	"zaatar/internal/compiler"
	"zaatar/internal/field"
)

// Registered backend names. These identifiers travel on the wire
// (Hello.Backends / HelloAck.Backend), key the transport program cache and
// vc.Precomputation, and name the pcp.backend.* metric series, so they are
// stable protocol constants rather than display strings.
const (
	// BackendZaatar is the QAP-based linear PCP (§3); commitment-based.
	BackendZaatar = "zaatar"
	// BackendGinger is the classical quadratic linear PCP (§2.2);
	// commitment-based.
	BackendGinger = "ginger"
	// BackendSumcheck is the sum-check/GKR lane for layered circuits
	// (Thaler, "Time-Optimal Interactive Proofs for Circuit Evaluation");
	// interactive, no commitments.
	BackendSumcheck = "sumcheck"
)

// Precomputed is a backend's program-dependent state: everything derivable
// from the compiled program alone, before any batch randomness exists (for
// Zaatar the QAP encoding, for Sumcheck the layered circuit). Values are
// immutable after Precompute and safe to share between concurrent provers
// and verifiers; the transport layer caches them across sessions.
type Precomputed interface{}

// Proof is one instance's proof material as built at commit time. For the
// commitment-based backends U1/U2 are the two linear proof oracles (fed to
// the homomorphic commitment and answered per query); for interactive
// backends U1 holds the flattened witness the respond phase proves from,
// and U2 is nil.
type Proof struct {
	U1, U2 []field.Element
}

// Queries is one batch's query state, derived deterministically from the
// verifier's seed so both ends can regenerate it ([53] Apdx A.3). A Queries
// value is immutable and safe for concurrent Answer/Decide calls.
type Queries interface {
	// Lists returns the per-oracle queries in factored form, which the
	// linear commitment protocol folds into its consistency points.
	// Interactive backends return empty lists: there is nothing to commit to
	// and no phase-1/2 crypto.
	Lists() (q1, q2 QueryList)
	// Vectors materialises Lists, every logical query as a vector in wire
	// order — the reference form. Interactive backends return (nil, nil).
	Vectors() (q1, q2 [][]field.Element)
	// Answer computes one instance's responses from its proof — the
	// honest prover's work in the respond phase.
	Answer(proof *Proof) (r1, r2 []field.Element, err error)
	// Decide runs every per-instance check against the responses; io holds
	// the instance's input and output field values in canonical order
	// (inputs first). Decide must tolerate responses of any shape without
	// panicking: they arrive from an untrusted prover.
	Decide(r1, r2 []field.Element, io []field.Element) CheckResult
}

// Backend is one proof encoding behind the argument layer: the pluggable
// seam between the vc driver (phases, batching, commitments) and the
// protocol mathematics. Implementations are stateless values; all state
// lives in the Precomputed and Queries objects they hand out.
type Backend interface {
	// Name returns the stable protocol identifier (see the Backend*
	// constants).
	Name() string
	// NeedsCommitment reports whether the backend's soundness rests on the
	// linear commitment primitive. When false the driver skips key
	// generation, the commit/decommit crypto, and the consistency tests
	// entirely — the decommit message then carries only the query seed.
	NeedsCommitment() bool
	// Precompute builds the program-dependent state shared by every batch.
	Precompute(prog *compiler.Program) (Precomputed, error)
	// Queries draws one batch's query state from rnd (a PRG seeded with the
	// verifier's per-batch seed).
	Queries(pre Precomputed, params Params, rnd io.Reader) (Queries, error)
	// Solve executes the computation on one instance's inputs, returning
	// the claimed outputs and the satisfying assignment (witness) the proof
	// is built from.
	Solve(pre Precomputed, prog *compiler.Program, inputs []*big.Int) (outputs []*big.Int, witness []field.Element, err error)
	// BuildProof turns a witness into the instance's proof material — the
	// "construct proof vector" phase of Figure 5.
	BuildProof(pre Precomputed, witness []field.Element) (*Proof, error)
	// OracleLens returns the two committed-oracle lengths |u₁|, |u₂| (the
	// commitment key sizes). Interactive backends return (0, 0).
	OracleLens(pre Precomputed) (n1, n2 int)
	// ConstructKernel names the dominant kernel of BuildProof for trace
	// spans (e.g. "kernel.ntt.quotient").
	ConstructKernel() string
}

// The registry maps backend names to implementations. All three built-in
// backends register at init time; Register is exported so experiments can
// plug in additional encodings.
var (
	registryMu sync.RWMutex
	registry   = map[string]Backend{}
)

// Register adds a backend under its Name. Registering a duplicate name
// panics: names are wire-visible identifiers and must be unambiguous.
func Register(b Backend) {
	registryMu.Lock()
	defer registryMu.Unlock()
	name := b.Name()
	if name == "" {
		panic("pcp: Register with empty backend name")
	}
	if _, dup := registry[name]; dup {
		panic("pcp: duplicate backend " + name)
	}
	registry[name] = b
}

// Lookup resolves a backend by name.
func Lookup(name string) (Backend, error) {
	registryMu.RLock()
	defer registryMu.RUnlock()
	if b, ok := registry[name]; ok {
		return b, nil
	}
	return nil, fmt.Errorf("pcp: unknown backend %q (have %v)", name, namesLocked())
}

// Names lists the registered backends in deterministic (sorted) order.
func Names() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	return namesLocked()
}

func namesLocked() []string {
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

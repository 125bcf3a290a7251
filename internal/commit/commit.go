// Package commit implements the linear commitment primitive of
// Pepper/Ginger ([52], [53] Apdx A.3; §2.2 of the Zaatar paper), which turns
// a prover holding a linear function π(·) = ⟨·, u⟩ into a bindable proof
// oracle:
//
//  1. Commit. V sends Enc(r) for a secret random vector r; P replies with
//     Enc(π(r)), computed homomorphically. Semantic security keeps r hidden,
//     so P is now bound to some fixed linear function.
//  2. Decommit. V reveals the PCP queries q_1..q_µ together with a
//     consistency point t = r + Σ α_i·q_i for secret random α_i. P answers
//     with π(q_1)..π(q_µ) and π(t).
//  3. Consistency test. V decrypts g^{π(r)} and checks
//     g^{π(t)} = g^{π(r)} · g^{Σ α_i π(q_i)} in the group — linearity of π
//     forces the revealed answers to match the committed function.
//
// A commitment key (r, Enc(r), the α's) is generated once per batch and
// reused across all instances; only Enc(π(r)) and the consistency check are
// per-instance. This is the amortization that Figure 3 charges as
// (e + …)·|u|/β.
package commit

import (
	"errors"
	"io"
	"math/big"

	"zaatar/internal/elgamal"
	"zaatar/internal/field"
)

// Key is the verifier's per-batch commitment state for one proof oracle of
// length n.
type Key struct {
	F     *field.Field
	Group *elgamal.Group
	SK    *elgamal.SecretKey

	R    []field.Element      // secret commitment vector
	EncR []elgamal.Ciphertext // Enc(R), shipped to the prover
}

// NewKey draws a fresh secret vector of length n and encrypts it.
func NewKey(f *field.Field, group *elgamal.Group, sk *elgamal.SecretKey, n int, rnd io.Reader) (*Key, error) {
	return NewKeyParallel(f, group, sk, n, rnd, 1)
}

// NewKeyParallel is NewKey with the Enc(r) setup sharded over workers
// goroutines. The random stream is consumed in element order regardless of
// worker count, so the key is deterministic for a seeded rnd.
func NewKeyParallel(f *field.Field, group *elgamal.Group, sk *elgamal.SecretKey, n int, rnd io.Reader, workers int) (*Key, error) {
	if group.Q.Cmp(f.Modulus()) != 0 {
		return nil, errors.New("commit: group order does not match field modulus")
	}
	r := f.RandVector(n, rnd)
	encR, err := sk.EncryptVectorParallel(f, r, rnd, workers)
	if err != nil {
		return nil, err
	}
	return &Key{F: f, Group: group, SK: sk, R: r, EncR: encR}, nil
}

// Commitment is the prover's response to the commit phase: Enc(π(r)).
type Commitment = elgamal.Ciphertext

// Commit is the prover side of the commit phase: it evaluates the linear
// function defined by u on the encrypted vector.
func Commit(group *elgamal.Group, f *field.Field, encR []elgamal.Ciphertext, u []field.Element) (Commitment, error) {
	return group.InnerProduct(encR, f, u)
}

// Prepare caches the Montgomery-domain conversion and batch inverses of
// Enc(r) for a batch: every instance commits against the same encrypted
// vector, so a prover that prepares once and calls CommitPrepared per
// instance skips the per-call base conversion and gets signed-digit
// multiexp windows at no inversion cost.
func Prepare(group *elgamal.Group, encR []elgamal.Ciphertext) *elgamal.PreparedVector {
	return group.Prepare(encR)
}

// CommitPrepared is Commit against a prepared Enc(r), with the inner
// product sharded over workers goroutines; results are identical to Commit
// for any worker count.
func CommitPrepared(group *elgamal.Group, f *field.Field, pv *elgamal.PreparedVector, u []field.Element, workers int) (Commitment, error) {
	return group.InnerProductPrepared(pv, f, u, workers)
}

// Decommit carries the revealed queries plus the consistency point t.
type Decommit struct {
	Queries [][]field.Element
	T       []field.Element
}

// Secrets holds the verifier's per-decommit secret coefficients.
type Secrets struct {
	Alphas []field.Element
}

// BuildDecommit folds the given PCP queries into a decommit message: it is
// ConsistencyPoint with each query its own base vector. Each query must have
// length len(k.R).
func (k *Key) BuildDecommit(queries [][]field.Element, rnd io.Reader) (Decommit, Secrets, error) {
	sums := make([][]int, len(queries))
	for i := range sums {
		sums[i] = []int{i}
	}
	t, s, err := k.ConsistencyPoint(queries, sums, rnd)
	if err != nil {
		return Decommit{}, Secrets{}, err
	}
	return Decommit{Queries: queries, T: t}, s, nil
}

// ConsistencyPoint draws fresh secret α's, one per logical query in query
// order, and computes t = r + Σ α_i·q_i for queries given in factored form:
// logical query i is the sum of the base vectors sums[i] indexes. Each α_i
// is added into the coefficient of every base vector in its sum, and t is
// one lazily reduced fold over the base, r + Σ_j (Σ_{i∋j} α_i)·base_j —
// the same vector as folding the materialised queries, with one term per
// base vector instead of one per query. Each base vector must have length
// len(k.R).
func (k *Key) ConsistencyPoint(base [][]field.Element, sums [][]int, rnd io.Reader) ([]field.Element, Secrets, error) {
	for _, b := range base {
		if len(b) != len(k.R) {
			return nil, Secrets{}, errors.New("commit: query length mismatch")
		}
	}
	alphas := k.F.RandVector(len(sums), rnd)
	coeffs := make([]field.Element, len(base))
	for i, terms := range sums {
		for _, j := range terms {
			coeffs[j] = k.F.Add(coeffs[j], alphas[i])
		}
	}
	t := append([]field.Element(nil), k.R...)
	k.F.AddLinearCombination(t, coeffs, base)
	return t, Secrets{Alphas: alphas}, nil
}

// Response is the prover's answers: one field element per query plus the
// consistency answer π(t).
type Response struct {
	Answers []field.Element
	AT      field.Element
}

// Respond evaluates the prover's linear function ⟨·, u⟩ on every revealed
// query and the consistency point.
func Respond(f *field.Field, u []field.Element, d Decommit) (Response, error) {
	if len(d.T) != len(u) {
		return Response{}, errors.New("commit: t length mismatch")
	}
	out := Response{Answers: make([]field.Element, len(d.Queries))}
	for i, q := range d.Queries {
		if len(q) != len(u) {
			return Response{}, errors.New("commit: query length mismatch")
		}
		out.Answers[i] = f.InnerProduct(q, u)
	}
	out.AT = f.InnerProduct(d.T, u)
	return out, nil
}

// VerifyConsistency runs the verifier's consistency test against the
// commitment received in the commit phase. A false result means the prover's
// revealed answers are not explained by any single committed linear
// function, and the instance must be rejected.
func (k *Key) VerifyConsistency(c Commitment, s Secrets, resp Response) bool {
	if len(resp.Answers) != len(s.Alphas) {
		return false
	}
	// s = Σ α_i · a_i in the field; check g^{aT} == g^{π(r)}·g^{s}.
	sum := k.F.Zero()
	for i := range s.Alphas {
		sum = k.F.Add(sum, k.F.Mul(s.Alphas[i], resp.Answers[i]))
	}
	gPiR := k.SK.DecryptExp(c)
	want := new(big.Int).Mul(gPiR, k.Group.ExpOfField(k.F, sum))
	want.Mod(want, k.Group.P)
	got := k.Group.ExpOfField(k.F, resp.AT)
	return got.Cmp(want) == 0
}

package qap

import (
	"errors"

	"zaatar/internal/field"
)

// Queries holds everything the verifier derives from one random point τ:
// the divisibility-correction query vectors over the unbound variables
// (q_a, q_b, q_c of Figure 10), the power query q_d for the H oracle, the
// per-input/output row evaluations used to form L_a, L_b, L_c, and D(τ).
type Queries struct {
	Tau field.Element

	// QA[i-1] = A_i(τ) for unbound wires i = 1..NZ; likewise QB, QC.
	QA, QB, QC []field.Element
	// IOA[k] = A_{NZ+1+k}(τ) for the bound (input/output) wires; V dots
	// these with the instance's x, y values — the 3·(|x|+|y|) per-instance
	// multiplications of Figure 3.
	IOA, IOB, IOC []field.Element
	// ConstA = A_0(τ), the constant row's contribution.
	ConstA, ConstB, ConstC field.Element
	// QD is the query to the H oracle: the Lagrange basis of the shifted
	// points |C|+1+k at τ, so that ⟨QD, h⟩ = H(τ) for h = BuildH(w).
	QD []field.Element
	// DTau = D(τ).
	DTau field.Element
}

// ErrTauCollision is returned when τ coincides with an interpolation point
// σ_j or with one of the shifted points h is indexed by, either of which
// would make a barycentric denominator zero. Callers draw a fresh τ; the
// probability is (2|C|+2)/|F|.
var ErrTauCollision = errors.New("qap: τ collides with an interpolation point, redraw")

// BuildQueries evaluates every row polynomial at τ using barycentric
// Lagrange interpolation over the arithmetic-progression points (§A.3),
// with the weights v_j taken from New: one batched inversion of the 2|C|+2
// differences τ − x, O(|C|) multiplications for the two Lagrange bases, then
// one multiplication per non-zero matrix entry (NNZ in total).
func (q *QAP) BuildQueries(tau field.Element) (*Queries, error) {
	f := q.F
	nc := q.NC

	// inv[x] = 1/(τ − x) for x = 0..2NC+1: the σ_j, then the shifted points.
	inv := make([]field.Element, 2*nc+2)
	diff, one := tau, f.One()
	for x := range inv {
		if f.IsZero(diff) {
			return nil, ErrTauCollision
		}
		inv[x] = diff
		diff = f.Sub(diff, one)
	}
	// ℓ(τ) = ∏_j (τ − σ_j) and its translate ℓ′(τ) = ∏_k (τ − (NC+1+k)).
	ell, ellShift := f.One(), f.One()
	for j := 0; j <= nc; j++ {
		ell = f.Mul(ell, inv[j])
		ellShift = f.Mul(ellShift, inv[nc+1+j])
	}
	f.BatchInv(inv, inv)

	// λ_j = ℓ(τ)·v_j/(τ − σ_j) is the Lagrange basis of the σ_j at τ; the
	// weights v_j depend only on the points' spacing, so the basis of the
	// shifted points is the same expression with ℓ′ and the shifted inverses.
	lambda := make([]field.Element, nc+1)
	qd := make([]field.Element, nc+1)
	for j := range lambda {
		lambda[j] = f.Mul(ell, f.Mul(q.v[j], inv[j]))
		qd[j] = f.Mul(ellShift, f.Mul(q.v[j], inv[nc+1+j]))
	}

	evalRows := func(rows [][]Entry) []field.Element {
		out := make([]field.Element, len(rows))
		for i, row := range rows {
			acc := f.Zero()
			for _, e := range row {
				acc = f.Add(acc, f.Mul(e.V, lambda[e.J]))
			}
			out[i] = acc
		}
		return out
	}
	evalA := evalRows(q.A)
	evalB := evalRows(q.B)
	evalC := evalRows(q.C)

	// D(τ) = ℓ(τ)/(τ − σ_0).
	dTau := f.Mul(ell, inv[0])

	return &Queries{
		Tau:    tau,
		QA:     evalA[1 : q.NZ+1],
		QB:     evalB[1 : q.NZ+1],
		QC:     evalC[1 : q.NZ+1],
		IOA:    evalA[q.NZ+1:],
		IOB:    evalB[q.NZ+1:],
		IOC:    evalC[q.NZ+1:],
		ConstA: evalA[0],
		ConstB: evalB[0],
		ConstC: evalC[0],
		QD:     qd,
		DTau:   dTau,
	}, nil
}

// IOTerms computes the instance-specific constants L_a, L_b, L_c of §3:
// the contribution of the constant row plus the bound input/output wires,
// whose values io must be given in wire order (inputs then outputs).
func (qr *Queries) IOTerms(f *field.Field, io []field.Element) (la, lb, lc field.Element) {
	if len(io) != len(qr.IOA) {
		panic("qap: IOTerms called with wrong number of input/output values")
	}
	la, lb, lc = qr.ConstA, qr.ConstB, qr.ConstC
	for k := range io {
		la = f.Add(la, f.Mul(io[k], qr.IOA[k]))
		lb = f.Add(lb, f.Mul(io[k], qr.IOB[k]))
		lc = f.Add(lc, f.Mul(io[k], qr.IOC[k]))
	}
	return la, lb, lc
}

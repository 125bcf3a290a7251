// Package qap implements the Quadratic Arithmetic Program encoding of
// quadratic-form constraints, the core of Zaatar's linear PCP (§3 and
// Appendix A.1 of the paper; Gennaro et al. [27]).
//
// Given a constraint set C over variables W = (X, Y, Z) in canonical order
// (unbound variables Z at wires 1..n′, then inputs and outputs; wire 0 is
// the constant 1), the QAP assigns each constraint j a distinguished point
// σ_j and defines degree-|C| polynomials A_i, B_i, C_i per variable row by
// interpolation:
//
//	A_i(σ_j) = a_{i,j}   (coefficient of W_i in pA of constraint j)
//	A_i(0)   = 0
//
// and the divisor polynomial D(t) = ∏ (t - σ_j). Claim A.1: D(t) divides
//
//	P_w(t) = (Σ w_i·A_i(t)) · (Σ w_i·B_i(t)) - (Σ w_i·C_i(t))
//
// iff w satisfies the constraints. The prover materializes H(t) = P_w/D;
// the verifier checks the factorization at a random point τ.
//
// Following §A.3 the interpolation points are the arithmetic progression
// σ_j = j, j = 0..|C| (σ_0 = 0 carries the A_i(0) = 0 condition), which
// makes the barycentric weights v_j factorial products: one field inversion
// plus O(|C|) multiplications.
//
// Departing from §A.3, H is never interpolated. The H oracle is an arbitrary
// linear function, so the proof vector h may hold H in any basis the
// verifier's query q_d matches; here h[k] = H(|C|+1+k), the values of H on
// the shifted progression {|C|+1, …, 2|C|+1}, and q_d is the Lagrange basis
// of those points at τ. With n = |C| and u_j = v_j·A(σ_j), barycentric
// evaluation gives
//
//	A(n+1+k) = ℓ(n+1+k) · Σ_j u_j / (n+1+k−j),   ℓ(x) = ∏_{j=0..n} (x − j)
//
// and the sum is one cyclic convolution against the fixed kernel
// g[i] = 1/(i+1). Since D(x) = ℓ(x)/x, the quotient needs no inversion:
//
//	H(n+1+k) = (n+1+k) · (ℓ(n+1+k)·c^A_k·c^B_k − c^C_k)
//
// where c^A, c^B, c^C are the three convolution outputs. Coefficients and
// values on n+1 distinct points are related by an invertible linear map on
// polynomials of degree ≤ n, so the functions a cheating π_h can induce —
// and with them the soundness analysis of §A.1/§A.2 — are unchanged.
package qap

import (
	"errors"
	"fmt"

	"zaatar/internal/constraint"
	"zaatar/internal/field"
	"zaatar/internal/poly"
)

// Entry is a non-zero evaluation a_{i,j} of a row polynomial at σ_j.
type Entry struct {
	J int // constraint index, 1-based (σ_j = j)
	V field.Element
}

// QAP is the polynomial encoding of one constraint system. It is immutable
// after construction and safe for concurrent use by a batch of prover
// workers.
type QAP struct {
	F  *field.Field
	NC int // |C|, number of constraints
	N  int // number of variables (wires 1..N)
	NZ int // n′, number of unbound variables (wires 1..NZ)

	// Sparse rows: rows[i] lists the non-zero evaluations of row i's
	// polynomial, for i in 0..N (0 is the constant row).
	A, B, C [][]Entry

	nnz int // total non-zero entries (constraint.QuadSystem.NNZ)

	// O(|C|) tables derived from (F, NC) alone; see initTables.
	v    []field.Element // barycentric weights of 0..NC (and of any translate)
	ell  []field.Element // ell[k] = ℓ(NC+1+k) = (NC+1+k)!/k!, k = 0..NC
	conv *poly.Convolver // against g[i] = 1/(i+1), i = 0..2NC
}

// errUnsatisfied is BuildH's refusal of a non-satisfying assignment.
var errUnsatisfied = errors.New("qap: assignment does not satisfy the constraints (D ∤ P_w)")

// New builds the QAP for a canonical quadratic-form system.
func New(f *field.Field, qs *constraint.QuadSystem) (*QAP, error) {
	if !qs.IsCanonical() {
		return nil, errors.New("qap: constraint system is not in canonical wire order (call Normalize)")
	}
	if qs.NumConstraints() == 0 {
		return nil, errors.New("qap: empty constraint system")
	}
	q := &QAP{
		F:  f,
		NC: qs.NumConstraints(),
		N:  qs.NumVars,
		NZ: qs.NumUnbound(),
		A:  make([][]Entry, qs.NumVars+1),
		B:  make([][]Entry, qs.NumVars+1),
		C:  make([][]Entry, qs.NumVars+1),
	}
	add := func(rows [][]Entry, lc constraint.LinComb, j int) {
		// Sum repeated variables within one linear combination.
		for _, t := range lc {
			if f.IsZero(t.Coeff) {
				continue
			}
			row := rows[t.Var]
			if n := len(row); n > 0 && row[n-1].J == j {
				row[n-1].V = f.Add(row[n-1].V, t.Coeff)
				if f.IsZero(row[n-1].V) {
					row = row[:n-1]
					q.nnz--
				}
				rows[t.Var] = row
				continue
			}
			rows[t.Var] = append(row, Entry{J: j, V: t.Coeff})
			q.nnz++
		}
	}
	for idx, c := range qs.Cons {
		j := idx + 1 // σ_j = j, non-zero as required by §A.1
		add(q.A, c.A, j)
		add(q.B, c.B, j)
		add(q.C, c.C, j)
	}

	if err := q.initTables(); err != nil {
		return nil, err
	}
	return q, nil
}

// initTables builds everything BuildH and BuildQueries need beyond the
// sparse rows: the barycentric weights, ℓ at the shifted points and the
// convolution kernel's transform. It refuses sizes the field cannot carry:
// the shifted points reach 2·NC+1, which must stay below p, and the
// convolution needs an NTT of nextPow2(2·NC+1) points.
func (q *QAP) initTables() error {
	f, n := q.F, q.NC
	if p := f.Modulus(); p.IsUint64() && uint64(2*n+2) > p.Uint64() {
		return fmt.Errorf("qap: %d constraints need %d distinct points, %s has %v", n, 2*n+2, f.Name(), p)
	}
	// x[i] = i+1 and g[i] = 1/(i+1), i = 0..2n.
	x := make([]field.Element, 2*n+1)
	x[0] = f.One()
	for i := 1; i < len(x); i++ {
		x[i] = f.Add(x[i-1], x[0])
	}
	g := make([]field.Element, len(x))
	f.BatchInv(g, x)
	// ℓ(n+1) = (n+1)!, then ℓ(n+1+k) = ℓ(n+k)·(n+1+k)/k.
	q.ell = make([]field.Element, n+1)
	q.ell[0] = f.One()
	for _, xi := range x[:n+1] {
		q.ell[0] = f.Mul(q.ell[0], xi)
	}
	for k := 1; k <= n; k++ {
		q.ell[k] = f.Mul(q.ell[k-1], f.Mul(x[n+k], g[k-1]))
	}
	var err error
	if q.conv, err = poly.NewConvolver(f, g); err != nil {
		return fmt.Errorf("qap: %d constraints: %w", n, err)
	}
	q.v = baryWeights(f, n)
	return nil
}

// NNZ returns the number of non-zero row-polynomial evaluations; the
// verifier's query construction performs one multiplication per entry
// (Figure 3's K + 3K₂ term, which counts the entries of §4's transform).
func (q *QAP) NNZ() int { return q.nnz }

// aggregate computes the evaluations (Σ_i w_i·rows[i](σ_j)) for j = 0..NC.
// The value at σ_0 = 0 is zero by construction.
func (q *QAP) aggregate(rows [][]Entry, w []field.Element) []field.Element {
	f := q.F
	vals := make([]field.Element, q.NC+1)
	for i, row := range rows {
		wi := w[i]
		if f.IsZero(wi) {
			continue
		}
		for _, e := range row {
			vals[e.J] = f.Add(vals[e.J], f.Mul(wi, e.V))
		}
	}
	return vals
}

// BuildH computes the proof vector h = (H(NC+1), ..., H(2NC+1)), the values
// of H(t) = P_w(t)/D(t) on the shifted progression, for a full assignment w
// (indexed by wire, w[0] = 1): three cyclic convolutions — six NTTs of
// nextPow2(2·NC+1) points — and O(NC) multiplications (see the package
// comment). It returns an error if D does not divide P_w, i.e. if w is not a
// satisfying assignment.
func (q *QAP) BuildH(w []field.Element) ([]field.Element, error) {
	f, n := q.F, q.NC
	if len(w) != q.N+1 {
		return nil, fmt.Errorf("qap: assignment has %d entries, want %d", len(w), q.N+1)
	}
	if !f.IsOne(w[0]) {
		return nil, errors.New("qap: w[0] must be 1")
	}
	a, b, c := q.aggregate(q.A, w), q.aggregate(q.B, w), q.aggregate(q.C, w)
	// D | P_w iff P_w vanishes at σ_1..σ_NC.
	for j := 1; j <= n; j++ {
		if !f.Equal(f.Mul(a[j], b[j]), c[j]) {
			return nil, errUnsatisfied
		}
	}
	ca, cb, cc := q.shift(a), q.shift(b), q.shift(c)
	h := make([]field.Element, n+1)
	x, one := f.FromUint64(uint64(n+1)), f.One()
	for k := range h {
		h[k] = f.Mul(x, f.Sub(f.Mul(q.ell[k], f.Mul(ca[k], cb[k])), cc[k]))
		x = f.Add(x, one)
	}
	return h, nil
}

// shift maps the values vals[j] = P(j), j = 0..NC, of a polynomial of degree
// ≤ NC to c[k] = P(NC+1+k)/ℓ(NC+1+k), k = 0..NC: with u_j = v_j·vals[j],
// c[k] = Σ_j u_j·g[NC+k−j], entries NC..2NC of u ⋆ g. The linear convolution
// has 3·NC+1 entries; at size ≥ 2·NC+1 the wrapped tail lands below NC.
func (q *QAP) shift(vals []field.Element) []field.Element {
	f, n := q.F, q.NC
	buf := make([]field.Element, q.conv.Size())
	for j, a := range vals {
		buf[j] = f.Mul(q.v[j], a)
	}
	q.conv.Convolve(buf)
	return buf[n : 2*n+1]
}

// BuildHNaive computes the monomial coefficients of H(t) by the textbook
// route — O(n³) Lagrange interpolation of A, B, C, schoolbook product and
// long division by D(t). It is the oracle the tests compare BuildH against
// (BuildH(w)[k] is this polynomial at NC+1+k) and the ablation baseline;
// the protocol never calls it.
func (q *QAP) BuildHNaive(w []field.Element) ([]field.Element, error) {
	f := q.F
	pts := make([]field.Element, q.NC+1)
	d := []field.Element{f.One()} // D(t) = ∏_{j=1..NC} (t − σ_j)
	for j := 0; j <= q.NC; j++ {
		pts[j] = f.FromUint64(uint64(j))
		if j > 0 {
			d = poly.MulNaive(f, d, []field.Element{f.Neg(pts[j]), f.One()})
		}
	}
	aw := poly.InterpolateNaive(f, pts, q.aggregate(q.A, w))
	bw := poly.InterpolateNaive(f, pts, q.aggregate(q.B, w))
	cw := poly.InterpolateNaive(f, pts, q.aggregate(q.C, w))
	pw := poly.Sub(f, poly.MulNaive(f, aw, bw), cw)
	h, r := poly.DivRemNaive(f, pw, d)
	if poly.Degree(f, r) != -1 {
		return nil, errUnsatisfied
	}
	out := make([]field.Element, q.NC+1)
	copy(out, h)
	return out, nil
}

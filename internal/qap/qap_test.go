package qap

import (
	"fmt"
	"math/rand"
	"testing"

	"zaatar/internal/constraint"
	"zaatar/internal/field"
	"zaatar/internal/poly"
)

type testReader struct{ r *rand.Rand }

func (t testReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(t.r.Intn(256))
	}
	return len(p), nil
}

// shiftedEvals evaluates a coefficient-form polynomial at NC+1+k, k = 0..NC:
// what BuildH's output must equal for the polynomial BuildHNaive returns.
func shiftedEvals(q *QAP, p []field.Element) []field.Element {
	out := make([]field.Element, q.NC+1)
	for k := range out {
		out[k] = poly.Eval(q.F, p, q.F.FromUint64(uint64(q.NC+1+k)))
	}
	return out
}

// evalD is D(τ) = ∏_{j=1..NC} (τ − σ_j) from the definition.
func evalD(q *QAP, tau field.Element) field.Element {
	f := q.F
	d := f.One()
	for j := 1; j <= q.NC; j++ {
		d = f.Mul(d, f.Sub(tau, f.FromUint64(uint64(j))))
	}
	return d
}

// evalPw is P_w(τ) from the definition: A, B, C interpolated through their
// aggregated values at σ_0..σ_NC by naive Lagrange, then evaluated.
func evalPw(q *QAP, w []field.Element, tau field.Element) field.Element {
	f := q.F
	pts := make([]field.Element, q.NC+1)
	for j := range pts {
		pts[j] = f.FromUint64(uint64(j))
	}
	at := func(rows [][]Entry) field.Element {
		return poly.Eval(f, poly.InterpolateNaive(f, pts, q.aggregate(rows, w)), tau)
	}
	return f.Sub(f.Mul(at(q.A), at(q.B)), at(q.C))
}

// buildSquareChain constructs the canonical system computing
// y = x^(2^k) via k squarings: wires 1..k-1 are intermediates (unbound),
// wire k is x (input), wire k+1 is y (output) after normalization.
func buildSquareChain(t *testing.T, f *field.Field, k int) (*constraint.QuadSystem, func(x uint64) []field.Element) {
	t.Helper()
	one := f.One()
	// Before normalization: wire 1 = x, wires 2..k = squares, wire k+1 = y.
	qs := &constraint.QuadSystem{
		NumVars: k + 1,
		In:      []int{1},
		Out:     []int{k + 1},
	}
	for i := 1; i <= k; i++ {
		qs.Cons = append(qs.Cons, constraint.QuadConstraint{
			A: constraint.LinComb{{Coeff: one, Var: i}},
			B: constraint.LinComb{{Coeff: one, Var: i}},
			C: constraint.LinComb{{Coeff: one, Var: i + 1}},
		})
	}
	ns, perm := qs.Normalize()
	witness := func(x uint64) []field.Element {
		w := make([]field.Element, k+2)
		w[0] = f.One()
		cur := f.FromUint64(x)
		w[1] = cur
		for i := 2; i <= k+1; i++ {
			cur = f.Mul(cur, cur)
			w[i] = cur
		}
		return perm.ApplyToAssignment(w)
	}
	return ns, witness
}

func TestNewRequiresCanonical(t *testing.T) {
	f := field.F128()
	one := f.One()
	qs := &constraint.QuadSystem{
		NumVars: 2,
		In:      []int{1}, // input at wire 1 with an unbound wire 2: not canonical
		Cons: []constraint.QuadConstraint{{
			A: constraint.LinComb{{Coeff: one, Var: 1}},
			B: constraint.LinComb{{Coeff: one, Var: 1}},
			C: constraint.LinComb{{Coeff: one, Var: 2}},
		}},
	}
	if _, err := New(f, qs); err == nil {
		t.Fatal("New accepted a non-canonical system")
	}
	if _, err := New(f, &constraint.QuadSystem{NumVars: 1}); err == nil {
		t.Fatal("New accepted an empty system")
	}
}

func TestBuildHSatisfying(t *testing.T) {
	for _, fld := range []*field.Field{field.F128(), field.F220()} {
		qs, witness := buildSquareChain(t, fld, 8)
		q, err := New(fld, qs)
		if err != nil {
			t.Fatal(err)
		}
		w := witness(3)
		if err := qs.Check(fld, w); err != nil {
			t.Fatal(err)
		}
		h, err := q.BuildH(w)
		if err != nil {
			t.Fatalf("%s: BuildH: %v", fld.Name(), err)
		}
		if len(h) != q.NC+1 {
			t.Fatalf("h has %d entries, want %d", len(h), q.NC+1)
		}
		// D(τ)·⟨h, q_d⟩ == P_w(τ) at random τ.
		rng := testReader{rand.New(rand.NewSource(1))}
		for i := 0; i < 5; i++ {
			tau := fld.Rand(rng)
			qr, err := q.BuildQueries(tau)
			if err != nil {
				t.Fatal(err)
			}
			lhs := fld.Mul(evalD(q, tau), fld.InnerProduct(h, qr.QD))
			if !fld.Equal(lhs, evalPw(q, w, tau)) {
				t.Fatalf("%s: D(τ)H(τ) != P_w(τ)", fld.Name())
			}
		}
	}
}

func TestBuildHRejectsBadWitness(t *testing.T) {
	f := field.F128()
	qs, witness := buildSquareChain(t, f, 8)
	q, _ := New(f, qs)
	w := witness(3)
	// Corrupt an unbound intermediate value.
	w[2] = f.Add(w[2], f.One())
	if _, err := q.BuildH(w); err == nil {
		t.Fatal("BuildH accepted a non-satisfying assignment")
	}
}

func TestBuildHRejectsMalformedAssignment(t *testing.T) {
	f := field.F128()
	qs, witness := buildSquareChain(t, f, 4)
	q, _ := New(f, qs)
	if _, err := q.BuildH(witness(2)[:3]); err == nil {
		t.Error("short assignment accepted")
	}
	w := witness(2)
	w[0] = f.FromUint64(2)
	if _, err := q.BuildH(w); err == nil {
		t.Error("assignment with w[0] != 1 accepted")
	}
}

func TestBuildHNaiveMatches(t *testing.T) {
	f := field.F128()
	qs, witness := buildSquareChain(t, f, 6)
	q, _ := New(f, qs)
	w := witness(5)
	fast, err := q.BuildH(w)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := q.BuildHNaive(w)
	if err != nil {
		t.Fatal(err)
	}
	if !poly.Equal(f, fast, shiftedEvals(q, naive)) {
		t.Fatal("BuildH is not BuildHNaive's polynomial on the shifted points")
	}
}

func TestQueriesMatchPolynomials(t *testing.T) {
	// BuildQueries' barycentric evaluations must equal direct evaluation of
	// the interpolated row polynomials.
	f := field.F128()
	qs, _ := buildSquareChain(t, f, 7)
	q, _ := New(f, qs)
	rng := testReader{rand.New(rand.NewSource(2))}
	tau := f.Rand(rng)
	qr, err := q.BuildQueries(tau)
	if err != nil {
		t.Fatal(err)
	}

	pts := make([]field.Element, q.NC+1)
	for j := range pts {
		pts[j] = f.FromUint64(uint64(j))
	}
	rowPoly := func(rows [][]Entry, i int) []field.Element {
		vals := make([]field.Element, q.NC+1)
		for _, e := range rows[i] {
			vals[e.J] = e.V
		}
		return poly.InterpolateNaive(f, pts, vals)
	}
	for i := 1; i <= q.NZ; i++ {
		want := poly.Eval(f, rowPoly(q.A, i), tau)
		if !f.Equal(qr.QA[i-1], want) {
			t.Fatalf("QA[%d] mismatch", i-1)
		}
	}
	for k := 0; k < len(qr.IOB); k++ {
		want := poly.Eval(f, rowPoly(q.B, q.NZ+1+k), tau)
		if !f.Equal(qr.IOB[k], want) {
			t.Fatalf("IOB[%d] mismatch", k)
		}
	}
	if !f.Equal(qr.ConstC, poly.Eval(f, rowPoly(q.C, 0), tau)) {
		t.Fatal("ConstC mismatch")
	}
	if !f.Equal(qr.DTau, evalD(q, tau)) {
		t.Fatal("DTau mismatch")
	}
	// q_d is the Lagrange basis of the shifted points: it carries the values
	// of any polynomial of degree ≤ NC on them to its value at τ.
	p := f.RandVector(q.NC+1, rng)
	if !f.Equal(f.InnerProduct(qr.QD, shiftedEvals(q, p)), poly.Eval(f, p, tau)) {
		t.Fatal("QD is not the Lagrange basis of the shifted points at τ")
	}
}

func TestTauCollisionDetected(t *testing.T) {
	f := field.F128()
	qs, _ := buildSquareChain(t, f, 4)
	q, _ := New(f, qs)
	// σ_0..σ_NC, then the shifted points NC+1..2NC+1 that h is indexed by.
	for x := 0; x <= 2*q.NC+1; x++ {
		if _, err := q.BuildQueries(f.FromUint64(uint64(x))); err != ErrTauCollision {
			t.Errorf("τ = %d not rejected (err=%v)", x, err)
		}
	}
	if _, err := q.BuildQueries(f.FromUint64(uint64(2*q.NC + 2))); err != nil {
		t.Errorf("τ just past the points rejected: %v", err)
	}
}

// TestDivisibilityCheckEndToEnd exercises the core identity the PCP
// verifies: D(τ)·⟨q_d, h⟩ = (⟨q_a, z⟩ + L_a)(⟨q_b, z⟩ + L_b) − (⟨q_c, z⟩ + L_c).
func TestDivisibilityCheckEndToEnd(t *testing.T) {
	f := field.F220()
	qs, witness := buildSquareChain(t, f, 9)
	q, _ := New(f, qs)
	w := witness(7)
	h, err := q.BuildH(w)
	if err != nil {
		t.Fatal(err)
	}
	z := w[1 : q.NZ+1]
	io := w[q.NZ+1:]
	rng := testReader{rand.New(rand.NewSource(3))}
	for i := 0; i < 10; i++ {
		qr, err := q.BuildQueries(f.Rand(rng))
		if err != nil {
			continue
		}
		la, lb, lc := qr.IOTerms(f, io)
		lhs := f.Mul(qr.DTau, f.InnerProduct(qr.QD, h))
		rhs := f.Sub(
			f.Mul(f.Add(f.InnerProduct(qr.QA, z), la), f.Add(f.InnerProduct(qr.QB, z), lb)),
			f.Add(f.InnerProduct(qr.QC, z), lc))
		if !f.Equal(lhs, rhs) {
			t.Fatal("divisibility identity failed for honest prover")
		}
	}
}

// TestDivisibilityCheckCatchesWrongOutput shows the identity fails w.h.p.
// when the claimed output is wrong even though z and h come from a real
// execution of a different instance.
func TestDivisibilityCheckCatchesWrongOutput(t *testing.T) {
	f := field.F128()
	qs, witness := buildSquareChain(t, f, 9)
	q, _ := New(f, qs)
	w := witness(7)
	h, _ := q.BuildH(w)
	z := w[1 : q.NZ+1]
	io := append([]field.Element(nil), w[q.NZ+1:]...)
	io[len(io)-1] = f.Add(io[len(io)-1], f.One()) // lie about y
	rng := testReader{rand.New(rand.NewSource(4))}
	rejected := 0
	for i := 0; i < 20; i++ {
		qr, err := q.BuildQueries(f.Rand(rng))
		if err != nil {
			continue
		}
		la, lb, lc := qr.IOTerms(f, io)
		lhs := f.Mul(qr.DTau, f.InnerProduct(qr.QD, h))
		rhs := f.Sub(
			f.Mul(f.Add(f.InnerProduct(qr.QA, z), la), f.Add(f.InnerProduct(qr.QB, z), lb)),
			f.Add(f.InnerProduct(qr.QC, z), lc))
		if !f.Equal(lhs, rhs) {
			rejected++
		}
	}
	if rejected < 20 {
		t.Fatalf("wrong output detected only %d/20 times", rejected)
	}
}

func TestNNZAccounting(t *testing.T) {
	f := field.F128()
	qs, _ := buildSquareChain(t, f, 5)
	q, _ := New(f, qs)
	// Each squaring constraint has one entry in each of A, B, C.
	if q.NNZ() != 3*q.NC {
		t.Errorf("NNZ = %d, want %d", q.NNZ(), 3*q.NC)
	}
}

// BenchmarkBuildH and BenchmarkBuildHNaive are the two sides of the
// EXPERIMENTS.md ablation; 2179 is |C| of the bench/ APSP workload.
func BenchmarkBuildH(b *testing.B) {
	for _, f := range []*field.Field{field.F128(), field.F220()} {
		for _, k := range []int{256, 2179} {
			b.Run(fmt.Sprintf("%s/C=%d", f.Name(), k), func(b *testing.B) {
				qs, witness := buildSquareChainBench(f, k)
				q, err := New(f, qs)
				if err != nil {
					b.Fatal(err)
				}
				w := witness(3)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := q.BuildH(w); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkBuildHNaive(b *testing.B) {
	f := field.F128()
	for _, k := range []int{128, 256} { // the O(n³) oracle would take minutes per call at 2179
		b.Run(fmt.Sprintf("%s/C=%d", f.Name(), k), func(b *testing.B) {
			qs, witness := buildSquareChainBench(f, k)
			q, _ := New(f, qs)
			w := witness(3)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := q.BuildHNaive(w); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkNew(b *testing.B) {
	f := field.F128()
	qs, _ := buildSquareChainBench(f, 2179)
	for i := 0; i < b.N; i++ {
		if _, err := New(f, qs); err != nil {
			b.Fatal(err)
		}
	}
}

func buildSquareChainBench(f *field.Field, k int) (*constraint.QuadSystem, func(x uint64) []field.Element) {
	one := f.One()
	qs := &constraint.QuadSystem{NumVars: k + 1, In: []int{1}, Out: []int{k + 1}}
	for i := 1; i <= k; i++ {
		qs.Cons = append(qs.Cons, constraint.QuadConstraint{
			A: constraint.LinComb{{Coeff: one, Var: i}},
			B: constraint.LinComb{{Coeff: one, Var: i}},
			C: constraint.LinComb{{Coeff: one, Var: i + 1}},
		})
	}
	ns, perm := qs.Normalize()
	return ns, func(x uint64) []field.Element {
		w := make([]field.Element, k+2)
		w[0] = f.One()
		cur := f.FromUint64(x)
		w[1] = cur
		for i := 2; i <= k+1; i++ {
			cur = f.Mul(cur, cur)
			w[i] = cur
		}
		return perm.ApplyToAssignment(w)
	}
}

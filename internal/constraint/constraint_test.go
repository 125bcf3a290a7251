package constraint

import (
	"math/rand"
	"reflect"
	"testing"

	"zaatar/internal/field"
)

// decrementBy3 builds the §2.1 example {X − Z = 0, Y − (Z − 3) = 0}:
// wire 1 = X (input), wire 2 = Y (output), wire 3 = Z.
func decrementBy3(f *field.Field) *GingerSystem {
	one := f.One()
	return &GingerSystem{
		NumVars: 3,
		In:      []int{1},
		Out:     []int{2},
		Cons: []GingerConstraint{
			{{Coeff: one, A: 1}, {Coeff: f.Neg(one), A: 3}},
			{{Coeff: one, A: 2}, {Coeff: f.Neg(one), A: 3}, {Coeff: f.FromUint64(3), A: 0}},
		},
	}
}

// mulAddSystem builds {w3 = w1·w2, w4 = w3 + w1, 2·w1·w2 + w2·w2 − w5 = 0}
// with w1, w2 inputs and w4, w5 outputs — it has repeated and distinct
// degree-2 terms for the K2 accounting.
func mulAddSystem(f *field.Field) *GingerSystem {
	one := f.One()
	neg := f.Neg(one)
	return &GingerSystem{
		NumVars: 5,
		In:      []int{1, 2},
		Out:     []int{4, 5},
		Cons: []GingerConstraint{
			{{Coeff: one, A: 1, B: 2}, {Coeff: neg, A: 3}},
			{{Coeff: one, A: 3}, {Coeff: one, A: 1}, {Coeff: neg, A: 4}},
			{{Coeff: f.FromUint64(2), A: 1, B: 2}, {Coeff: one, A: 2, B: 2}, {Coeff: neg, A: 5}},
		},
	}
}

func mulAddWitness(f *field.Field, x1, x2 uint64) []field.Element {
	w := make([]field.Element, 6)
	w[0] = f.One()
	w[1] = f.FromUint64(x1)
	w[2] = f.FromUint64(x2)
	w[3] = f.FromUint64(x1 * x2)
	w[4] = f.FromUint64(x1*x2 + x1)
	w[5] = f.FromUint64(2*x1*x2 + x2*x2)
	return w
}

func TestDecrementBy3(t *testing.T) {
	f := field.F128()
	s := decrementBy3(f)
	// y = x - 3 with x = 10: z = 10, y = 7.
	w := []field.Element{f.One(), f.FromUint64(10), f.FromUint64(7), f.FromUint64(10)}
	if err := s.Check(f, w); err != nil {
		t.Fatalf("valid witness rejected: %v", err)
	}
	// y = 8 is wrong.
	w[2] = f.FromUint64(8)
	if err := s.Check(f, w); err == nil {
		t.Fatal("invalid witness accepted")
	}
}

func TestCheckRejectsMalformedAssignment(t *testing.T) {
	f := field.F128()
	s := decrementBy3(f)
	if err := s.Check(f, make([]field.Element, 2)); err == nil {
		t.Error("short assignment accepted")
	}
	w := make([]field.Element, 4)
	w[0] = f.FromUint64(2) // not 1
	if err := s.Check(f, w); err == nil {
		t.Error("assignment with w[0] != 1 accepted")
	}
}

func TestStats(t *testing.T) {
	f := field.F128()
	s := mulAddSystem(f)
	st := s.Stats()
	if st.NumVars != 5 || st.NumConstraints != 3 {
		t.Fatalf("sizes: %+v", st)
	}
	if st.NumUnbound != 1 {
		t.Fatalf("NumUnbound = %d, want 1", st.NumUnbound)
	}
	if st.K != 2+3+3 {
		t.Errorf("K = %d, want 8", st.K)
	}
	// Distinct degree-2 terms: (1,2) and (2,2).
	if st.K2 != 2 {
		t.Errorf("K2 = %d, want 2", st.K2)
	}
}

// TestToQuadSizes: every degree-2 row of mulAddSystem has a shared factor
// (2·w1·w2 + w2·w2 pivots on w2), so nothing is minted and each row keeps
// its shape.
func TestToQuadSizes(t *testing.T) {
	f := field.F128()
	gs := mulAddSystem(f)
	qs := ToQuad(f, gs)
	if m := minted(t, gs, qs); m != 0 {
		t.Errorf("minted %d product variables, want 0 (K₂ = %d is only the bound)", m, gs.Stats().K2)
	}
	two, one, neg := f.FromUint64(2), f.One(), f.Neg(f.One())
	want := []QuadConstraint{
		{A: LinComb{{one, 1}}, B: LinComb{{one, 2}}, C: LinComb{{one, 3}}},
		{A: LinComb{{one, 3}, {one, 1}, {neg, 4}}, B: LinComb{{one, 0}}},
		{A: LinComb{{one, 2}}, B: LinComb{{two, 1}, {one, 2}}, C: LinComb{{one, 5}}},
	}
	if !reflect.DeepEqual(qs.Cons, want) {
		t.Errorf("rows = %+v, want %+v", qs.Cons, want)
	}
}

// TestToQuadPivot pins the pivot rule: the wire in the most degree-2 terms
// wins over lower-indexed ones (w3 and w4 below, in two terms each), a
// square counts its wire once, and a product without the pivot is minted
// once although two rows use it.
func TestToQuadPivot(t *testing.T) {
	f := field.F128()
	one := f.One()
	gs := &GingerSystem{
		NumVars: 6,
		Cons: []GingerConstraint{
			{{Coeff: one, A: 5, B: 1}, {Coeff: one, A: 2, B: 3}, {Coeff: one, A: 4, B: 3}, {Coeff: one, A: 6}},
			{{Coeff: one, A: 4, B: 4}, {Coeff: one, A: 1, B: 5}, {Coeff: one, A: 4, B: 2}},
		},
	}
	qs := ToQuad(f, gs)
	if m := minted(t, gs, qs); m != 1 {
		t.Fatalf("minted %d, want 1 (w7 = w1·w5)", m)
	}
	neg := f.Neg(one)
	want := []QuadConstraint{
		{A: LinComb{{one, 3}}, B: LinComb{{one, 2}, {one, 4}}, C: LinComb{{neg, 7}, {neg, 6}}},
		{A: LinComb{{one, 4}}, B: LinComb{{one, 4}, {one, 2}}, C: LinComb{{neg, 7}}},
		{A: LinComb{{one, 1}}, B: LinComb{{one, 5}}, C: LinComb{{one, 7}}},
	}
	if !reflect.DeepEqual(qs.Cons, want) {
		t.Fatalf("rows = %+v, want %+v", qs.Cons, want)
	}
}

func TestToQuadPreservesSatisfiability(t *testing.T) {
	f := field.F128()
	gs := mulAddSystem(f)
	qs := ToQuad(f, gs)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20; i++ {
		x1, x2 := uint64(rng.Intn(1000)), uint64(rng.Intn(1000))
		w := mulAddWitness(f, x1, x2)
		if err := gs.Check(f, w); err != nil {
			t.Fatalf("ginger witness: %v", err)
		}
		qw := ExtendAssignment(f, gs, qs, w)
		if err := qs.Check(f, qw); err != nil {
			t.Fatalf("quad witness: %v", err)
		}
	}
}

func TestToQuadRejectsBadWitness(t *testing.T) {
	f := field.F128()
	gs := mulAddSystem(f)
	qs := ToQuad(f, gs)
	w := mulAddWitness(f, 3, 4)
	w[4] = f.Add(w[4], f.One()) // corrupt an output
	qw := ExtendAssignment(f, gs, qs, w)
	if err := qs.Check(f, qw); err == nil {
		t.Fatal("quad system accepted corrupted witness")
	}
}

func TestPaperTransformExample(t *testing.T) {
	// §4's example: {3·Z1Z2 + 2·Z3Z4 + Z5 − Z6 = 0}. The paper's transform
	// mints both products (K₂ = 2: three constraints, two new variables);
	// ToQuad pivots on Z1, keeps 3·Z1Z2 in the row and mints only
	// Z7 = Z3·Z4: (Z1)·(3·Z2) = −2·Z7 − Z5 + Z6 and (Z3)·(Z4) = Z7.
	f := field.F128()
	one := f.One()
	gs := &GingerSystem{
		NumVars: 6,
		Cons: []GingerConstraint{{
			{Coeff: f.FromUint64(3), A: 1, B: 2},
			{Coeff: f.FromUint64(2), A: 3, B: 4},
			{Coeff: one, A: 5},
			{Coeff: f.Neg(one), A: 6},
		}},
	}
	qs := ToQuad(f, gs)
	if m, k2 := minted(t, gs, qs), gs.Stats().K2; m != 1 || k2 != 2 {
		t.Fatalf("minted %d of K₂ = %d, want 1 of 2", m, k2)
	}
	if qs.NumVars != 7 || len(qs.Cons) != 2 {
		t.Fatalf("transform shape: vars=%d cons=%d, want 7, 2", qs.NumVars, len(qs.Cons))
	}
	neg := f.Neg(one)
	want := []QuadConstraint{
		{A: LinComb{{one, 1}}, B: LinComb{{f.FromUint64(3), 2}}, C: LinComb{{f.Neg(f.FromUint64(2)), 7}, {neg, 5}, {one, 6}}},
		{A: LinComb{{one, 3}}, B: LinComb{{one, 4}}, C: LinComb{{one, 7}}},
	}
	if !reflect.DeepEqual(qs.Cons, want) {
		t.Fatalf("rows = %+v, want %+v", qs.Cons, want)
	}
	// Witness: z1..z6 with z5 = z6 - 3z1z2 - 2z3z4.
	w := make([]field.Element, 7)
	w[0] = one
	for i := 1; i <= 4; i++ {
		w[i] = f.FromUint64(uint64(i + 1))
	}
	w[6] = f.FromUint64(100)
	z1z2 := f.Mul(w[1], w[2])
	z3z4 := f.Mul(w[3], w[4])
	w[5] = f.Sub(w[6], f.Add(f.Mul(f.FromUint64(3), z1z2), f.Mul(f.FromUint64(2), z3z4)))
	if err := gs.Check(f, w); err != nil {
		t.Fatal(err)
	}
	qw := ExtendAssignment(f, gs, qs, w)
	if err := qs.Check(f, qw); err != nil {
		t.Fatal(err)
	}
}

func TestProofVectorSizes(t *testing.T) {
	f := field.F128()
	gs := mulAddSystem(f)
	qs := ToQuad(f, gs)
	ug, uz := ProofVectorSizes(gs, qs)
	nz := gs.NumUnbound()
	if ug != nz+nz*nz {
		t.Errorf("|u_ginger| = %d, want %d", ug, nz+nz*nz)
	}
	if uz != qs.NumUnbound()+qs.NumConstraints() {
		t.Errorf("|u_zaatar| = %d", uz)
	}
}

func TestNormalizeQuad(t *testing.T) {
	f := field.F128()
	gs := mulAddSystem(f)
	qs := ToQuad(f, gs)
	ns, p := qs.Normalize()
	if !ns.IsCanonical() {
		t.Fatal("normalized system is not canonical")
	}
	if qs.IsCanonical() {
		t.Log("original system happened to be canonical") // not an error
	}
	w := mulAddWitness(f, 6, 7)
	qw := ExtendAssignment(f, gs, qs, w)
	nw := p.ApplyToAssignment(qw)
	if err := ns.Check(f, nw); err != nil {
		t.Fatalf("normalized witness rejected: %v", err)
	}
	// Permutation must be a bijection fixing 0.
	if p[0] != 0 {
		t.Error("perm moved the constant wire")
	}
	seen := make(map[int]bool)
	for _, v := range p {
		if seen[v] {
			t.Fatal("permutation is not injective")
		}
		seen[v] = true
	}
}

func TestNormalizeGinger(t *testing.T) {
	f := field.F128()
	gs := mulAddSystem(f)
	ns, p := gs.Normalize()
	w := mulAddWitness(f, 2, 9)
	nw := p.ApplyToAssignment(w)
	if err := ns.Check(f, nw); err != nil {
		t.Fatalf("normalized ginger witness rejected: %v", err)
	}
	// Unbound wire (old 3) must now be wire 1.
	if p[3] != 1 {
		t.Errorf("unbound wire mapped to %d, want 1", p[3])
	}
}

func TestTermDegree(t *testing.T) {
	f := field.F128()
	one := f.One()
	cases := []struct {
		t    Term
		want int
	}{
		{Term{one, 0, 0}, 0},
		{Term{one, 1, 0}, 1},
		{Term{one, 0, 2}, 1},
		{Term{one, 1, 2}, 2},
	}
	for i, c := range cases {
		if got := c.t.Degree(); got != c.want {
			t.Errorf("case %d: degree = %d, want %d", i, got, c.want)
		}
	}
}

package pcp

import (
	"strings"
	"testing"

	"zaatar/internal/constraint"
	"zaatar/internal/field"
	"zaatar/internal/prg"
	"zaatar/internal/qap"
)

// squareChainQuad builds a canonical quadratic system computing
// y = x^(2^k), plus a witness builder.
func squareChainQuad(f *field.Field, k int) (*constraint.QuadSystem, func(x uint64) []field.Element) {
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

// xSquarePlusX builds a canonical Ginger system computing y = x² + x with
// the input isolated behind a copy wire, as the compiler guarantees.
func xSquarePlusX(f *field.Field) (*constraint.GingerSystem, func(x uint64) []field.Element) {
	one := f.One()
	neg := f.Neg(one)
	// wire 1 = x (in), wire 2 = zx (copy), wire 3 = zx², wire 4 = y (out)
	gs := &constraint.GingerSystem{
		NumVars: 4,
		In:      []int{1},
		Out:     []int{4},
		Cons: []constraint.GingerConstraint{
			{{Coeff: one, A: 2}, {Coeff: neg, A: 1}},
			{{Coeff: one, A: 2, B: 2}, {Coeff: neg, A: 3}},
			{{Coeff: one, A: 3}, {Coeff: one, A: 2}, {Coeff: neg, A: 4}},
		},
	}
	ns, perm := gs.Normalize()
	return ns, func(x uint64) []field.Element {
		w := make([]field.Element, 5)
		w[0] = f.One()
		w[1] = f.FromUint64(x)
		w[2] = f.FromUint64(x)
		w[3] = f.FromUint64(x * x)
		w[4] = f.FromUint64(x*x + x)
		return perm.ApplyToAssignment(w)
	}
}

func TestSoundnessParameters(t *testing.T) {
	// §A.2: δ = 0.0294, ρ_lin = 20 gives κ ≤ 0.177, and ρ = 8 gives
	// soundness error κ^ρ < 9.6×10⁻⁷.
	p := DefaultParams()
	if k := p.Kappa(); k > 0.177 {
		t.Errorf("κ = %v, want ≤ 0.177", k)
	}
	if e := p.SoundnessError(); e >= 9.6e-7 {
		t.Errorf("soundness error = %v, want < 9.6e-7", e)
	}
	if got := p.ZaatarQueriesPerRepetition(); got != 124 {
		t.Errorf("ℓ′ = %d, want 124", got)
	}
	if got := p.GingerHighOrderQueries(); got != 62 {
		t.Errorf("ℓ = %d, want 62", got)
	}
}

func TestZaatarHonestProver(t *testing.T) {
	for _, f := range []*field.Field{field.F128(), field.F220()} {
		qs, witness := squareChainQuad(f, 6)
		q, err := qap.New(f, qs)
		if err != nil {
			t.Fatal(err)
		}
		v, err := NewZaatar(q, TestParams(), prg.NewFromSeed([]byte("zaatar"), 0))
		if err != nil {
			t.Fatal(err)
		}
		w := witness(3)
		z, h, err := BuildProof(q, w)
		if err != nil {
			t.Fatal(err)
		}
		res := v.Check(v.Z.Answer(f, z), v.H.Answer(f, h), w[q.NZ+1:])
		if !res.OK {
			t.Fatalf("%s: honest prover rejected: %s", f.Name(), res.Reason)
		}
	}
}

func TestZaatarQueryCounts(t *testing.T) {
	f := field.F128()
	qs, _ := squareChainQuad(f, 4)
	q, _ := qap.New(f, qs)
	p := Params{RhoLin: 3, Rho: 2}
	v, err := NewZaatar(q, p, prg.NewFromSeed([]byte("counts"), 0))
	if err != nil {
		t.Fatal(err)
	}
	// Logical queries: what the prover answers and the wire carries.
	if got, want := v.Z.Len(), p.Rho*(3*p.RhoLin+3); got != want {
		t.Errorf("z queries = %d, want %d", got, want)
	}
	if got, want := v.H.Len(), p.Rho*(3*p.RhoLin+1); got != want {
		t.Errorf("h queries = %d, want %d", got, want)
	}
	// Base vectors: what is drawn, stored, multiplied and folded — q7, q10
	// and the self-corrected queries are sums of these.
	if got, want := len(v.Z.Base), p.Rho*(2*p.RhoLin+3); got != want {
		t.Errorf("z base vectors = %d, want %d", got, want)
	}
	if got, want := len(v.H.Base), p.Rho*(2*p.RhoLin+1); got != want {
		t.Errorf("h base vectors = %d, want %d", got, want)
	}
	// Total per repetition must be ℓ′.
	if got := 3*p.RhoLin + 3 + 3*p.RhoLin + 1; got != p.ZaatarQueriesPerRepetition() {
		t.Errorf("per-rep total %d != ℓ′ %d", got, p.ZaatarQueriesPerRepetition())
	}
}

func TestZaatarCatchesWrongOutput(t *testing.T) {
	f := field.F128()
	qs, witness := squareChainQuad(f, 6)
	q, _ := qap.New(f, qs)
	v, _ := NewZaatar(q, TestParams(), prg.NewFromSeed([]byte("wrong-output"), 0))
	w := witness(3)
	z, h, _ := BuildProof(q, w)
	io := append([]field.Element(nil), w[q.NZ+1:]...)
	io[len(io)-1] = f.Add(io[len(io)-1], f.One())
	res := v.Check(v.Z.Answer(f, z), v.H.Answer(f, h), io)
	if res.OK {
		t.Fatal("wrong output accepted")
	}
	if !strings.Contains(res.Reason, "divisibility") {
		t.Errorf("unexpected failure reason: %s", res.Reason)
	}
}

func TestZaatarCatchesCorruptWitness(t *testing.T) {
	f := field.F128()
	qs, witness := squareChainQuad(f, 6)
	q, _ := qap.New(f, qs)
	v, _ := NewZaatar(q, TestParams(), prg.NewFromSeed([]byte("corrupt-z"), 0))
	w := witness(3)
	w[1] = f.Add(w[1], f.One()) // break an unbound wire
	z := append([]field.Element(nil), w[1:q.NZ+1]...)
	// The prover cannot build a consistent h for a bad witness, so a cheat
	// reuses the h of a *different* (valid) witness.
	wGood := witness(3)
	_, h, _ := BuildProof(q, wGood)
	res := v.Check(v.Z.Answer(f, z), v.H.Answer(f, h), w[q.NZ+1:])
	if res.OK {
		t.Fatal("corrupt witness accepted")
	}
}

// TestZaatarCatchesPerturbedH: h holds H on the shifted points, and every
// one of its entries reaches H(τ) through a non-zero Lagrange coefficient.
// A linear π_h that differs from the honest one in a single entry passes the
// linearity tests and fails the divisibility-correction test.
func TestZaatarCatchesPerturbedH(t *testing.T) {
	f := field.F128()
	qs, witness := squareChainQuad(f, 6)
	q, _ := qap.New(f, qs)
	v, _ := NewZaatar(q, TestParams(), prg.NewFromSeed([]byte("perturbed-h"), 0))
	w := witness(3)
	z, h, _ := BuildProof(q, w)
	for k := range h {
		bad := append([]field.Element(nil), h...)
		bad[k] = f.Add(bad[k], f.One())
		res := v.Check(v.Z.Answer(f, z), v.H.Answer(f, bad), w[q.NZ+1:])
		if res.OK {
			t.Fatalf("h with entry %d perturbed accepted", k)
		}
		if !strings.Contains(res.Reason, "divisibility") {
			t.Errorf("entry %d: unexpected failure reason: %s", k, res.Reason)
		}
	}
}

func TestZaatarCatchesTamperedLinearity(t *testing.T) {
	f := field.F128()
	qs, witness := squareChainQuad(f, 5)
	q, _ := qap.New(f, qs)
	v, _ := NewZaatar(q, TestParams(), prg.NewFromSeed([]byte("nonlinear"), 0))
	w := witness(2)
	z, h, _ := BuildProof(q, w)
	zr := v.Z.Answer(f, z)
	zr[2] = f.Add(zr[2], f.One()) // corrupt a q7 response
	res := v.Check(zr, v.H.Answer(f, h), w[q.NZ+1:])
	if res.OK {
		t.Fatal("non-linear responses accepted")
	}
	if !strings.Contains(res.Reason, "linearity") {
		t.Errorf("unexpected failure reason: %s", res.Reason)
	}
}

func TestZaatarResponseCountMismatch(t *testing.T) {
	f := field.F128()
	qs, witness := squareChainQuad(f, 4)
	q, _ := qap.New(f, qs)
	v, _ := NewZaatar(q, TestParams(), prg.NewFromSeed([]byte("counts2"), 0))
	w := witness(2)
	z, h, _ := BuildProof(q, w)
	if v.Check(v.Z.Answer(f, z)[:1], v.H.Answer(f, h), w[q.NZ+1:]).OK {
		t.Fatal("short responses accepted")
	}
}

func TestGingerHonestProver(t *testing.T) {
	f := field.F128()
	gs, witness := xSquarePlusX(f)
	v, err := NewGinger(f, gs, TestParams(), prg.NewFromSeed([]byte("ginger"), 0))
	if err != nil {
		t.Fatal(err)
	}
	w := witness(7)
	if err := gs.Check(f, w); err != nil {
		t.Fatal(err)
	}
	z, zz, err := BuildGingerProof(f, gs, w)
	if err != nil {
		t.Fatal(err)
	}
	nio := len(gs.In) + len(gs.Out)
	io := w[len(w)-nio:]
	res := v.Check(v.Z1.Answer(f, z), v.Z2.Answer(f, zz), io)
	if !res.OK {
		t.Fatalf("honest ginger prover rejected: %s", res.Reason)
	}
}

func TestGingerCatchesWrongOutput(t *testing.T) {
	f := field.F128()
	gs, witness := xSquarePlusX(f)
	v, _ := NewGinger(f, gs, TestParams(), prg.NewFromSeed([]byte("ginger2"), 0))
	w := witness(7)
	z, zz, _ := BuildGingerProof(f, gs, w)
	nio := len(gs.In) + len(gs.Out)
	io := append([]field.Element(nil), w[len(w)-nio:]...)
	io[len(io)-1] = f.Add(io[len(io)-1], f.One())
	res := v.Check(v.Z1.Answer(f, z), v.Z2.Answer(f, zz), io)
	if res.OK {
		t.Fatal("wrong ginger output accepted")
	}
	if !strings.Contains(res.Reason, "circuit") {
		t.Errorf("unexpected failure reason: %s", res.Reason)
	}
}

func TestGingerCatchesNonOuterProduct(t *testing.T) {
	f := field.F128()
	gs, witness := xSquarePlusX(f)
	v, _ := NewGinger(f, gs, TestParams(), prg.NewFromSeed([]byte("ginger3"), 0))
	w := witness(7)
	z, zz, _ := BuildGingerProof(f, gs, w)
	zz[0] = f.Add(zz[0], f.One()) // π₂ no longer encodes z⊗z
	nio := len(gs.In) + len(gs.Out)
	res := v.Check(v.Z1.Answer(f, z), v.Z2.Answer(f, zz), w[len(w)-nio:])
	if res.OK {
		t.Fatal("tampered outer product accepted")
	}
}

func TestGingerRejectsUnisolatedIO(t *testing.T) {
	f := field.F128()
	one := f.One()
	// y = x·x directly: the input wire appears in a degree-2 term.
	gs := &constraint.GingerSystem{
		NumVars: 2,
		In:      []int{1},
		Out:     []int{2},
		Cons: []constraint.GingerConstraint{
			{{Coeff: one, A: 1, B: 1}, {Coeff: f.Neg(one), A: 2}},
		},
	}
	ns, _ := gs.Normalize()
	if _, err := NewGinger(f, ns, TestParams(), prg.NewFromSeed([]byte("bad"), 0)); err == nil {
		t.Fatal("NewGinger accepted a system with IO in degree-2 terms")
	}
}

func TestGingerProofSizeCap(t *testing.T) {
	f := field.F128()
	gs := &constraint.GingerSystem{NumVars: MaxGingerProofVars + 10}
	w := make([]field.Element, gs.NumVars+1)
	w[0] = f.One()
	if _, _, err := BuildGingerProof(f, gs, w); err == nil {
		t.Fatal("oversized ginger proof not rejected")
	}
}

func TestBuildProofRejectsBadWitness(t *testing.T) {
	f := field.F128()
	qs, witness := squareChainQuad(f, 4)
	q, _ := qap.New(f, qs)
	w := witness(2)
	w[1] = f.Add(w[1], f.One())
	if _, _, err := BuildProof(q, w); err == nil {
		t.Fatal("BuildProof accepted a bad witness")
	}
}

func TestInvalidParamsRejected(t *testing.T) {
	f := field.F128()
	qs, _ := squareChainQuad(f, 4)
	q, _ := qap.New(f, qs)
	if _, err := NewZaatar(q, Params{RhoLin: 0, Rho: 1}, prg.NewFromSeed([]byte("p"), 0)); err == nil {
		t.Error("zero RhoLin accepted")
	}
	gs, _ := xSquarePlusX(f)
	if _, err := NewGinger(f, gs, Params{RhoLin: 1, Rho: 0}, prg.NewFromSeed([]byte("p"), 0)); err == nil {
		t.Error("zero Rho accepted")
	}
}

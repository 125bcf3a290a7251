package constraint

import (
	"math/rand"
	"reflect"
	"testing"

	"zaatar/internal/field"
)

// Row shapes the generator mixes: every way a Ginger constraint can meet
// ToQuad.
const (
	shapeLinear   = iota // linear and constant terms only: (lin)·1 = 0
	shapeProduct         // one degree-2 term: a native row
	shapeShared          // degree-2 terms with a common factor (the compiler's mux)
	shapeSquare          // z_i·z_i, alone or beside another term on z_i
	shapeDisjoint        // degree-2 terms with no common factor: all but the pivot's need a z′
	numShapes
)

// randSatisfiableSystem generates a random Ginger system together with a
// satisfying assignment, by drawing a random assignment first and then
// constructing constraints that hold on it (each random constraint gets a
// constant correction term). Each constraint takes one of the row shapes
// above at random.
func randSatisfiableSystem(f *field.Field, rng *rand.Rand, nVars, nCons int) (*GingerSystem, []field.Element) {
	w := make([]field.Element, nVars+1)
	w[0] = f.One()
	for i := 1; i <= nVars; i++ {
		w[i] = f.FromInt64(int64(rng.Intn(2000) - 1000))
	}
	nIn := 1 + rng.Intn(2)
	nOut := 1 + rng.Intn(2)
	gs := &GingerSystem{NumVars: nVars}
	for i := 0; i < nIn; i++ {
		gs.In = append(gs.In, i+1)
	}
	for i := 0; i < nOut; i++ {
		gs.Out = append(gs.Out, nIn+i+1)
	}
	// Degree-2 terms range over the unbound wires lo..nVars only (the PCP
	// batching invariant the compiler maintains).
	lo := nIn + nOut + 1
	nz := nVars - nIn - nOut
	unbound := func() int { return lo + rng.Intn(nz) }
	coeff := func() field.Element {
		v := rng.Intn(18) - 9
		if v >= 0 {
			v++
		}
		return f.FromInt64(int64(v))
	}

	for j := 0; j < nCons; j++ {
		var c GingerConstraint
		prod := func(a, b int) {
			if rng.Intn(2) == 0 {
				a, b = b, a
			}
			c = append(c, Term{Coeff: coeff(), A: a, B: b})
		}
		shape := rng.Intn(numShapes)
		switch shape {
		case shapeProduct:
			prod(unbound(), unbound())
		case shapeShared:
			p := unbound()
			for k := 2 + rng.Intn(2); k > 0; k-- {
				prod(p, unbound())
			}
		case shapeSquare:
			a := unbound()
			prod(a, a)
			if rng.Intn(2) == 0 {
				prod(a, unbound())
			}
		case shapeDisjoint:
			if nz < 4 {
				prod(unbound(), unbound())
				prod(unbound(), unbound())
				break
			}
			pairs := 2
			if nz >= 6 && rng.Intn(2) == 0 {
				pairs = 3
			}
			perm := rng.Perm(nz)
			for k := 0; k < pairs; k++ {
				prod(lo+perm[2*k], lo+perm[2*k+1])
			}
		}
		nLin := rng.Intn(3)
		if shape == shapeLinear {
			nLin++
		}
		for k := 0; k < nLin; k++ {
			c = append(c, Term{Coeff: coeff(), A: rng.Intn(nVars + 1)})
		}
		// Constant correction makes the constraint hold at w.
		c = append(c, Term{Coeff: f.Neg(residual(f, c, w)), A: 0, B: 0})
		gs.Cons = append(gs.Cons, c)
	}
	return gs, w
}

// residual is Σ terms of c at w.
func residual(f *field.Field, c GingerConstraint, w []field.Element) field.Element {
	acc := f.Zero()
	for _, t := range c {
		acc = f.Add(acc, f.Mul(t.Coeff, f.Mul(w[t.A], w[t.B])))
	}
	return acc
}

// minted checks ToQuad's size bound and returns the number of product
// variables it minted: |Z_z|−|Z_g| = |C_z|−|C_g| ≤ K₂.
func minted(t *testing.T, gs *GingerSystem, qs *QuadSystem) int {
	t.Helper()
	m := qs.NumVars - gs.NumVars
	if m != qs.NumConstraints()-gs.NumConstraints() {
		t.Fatalf("minted %d variables but %d constraints", m, qs.NumConstraints()-gs.NumConstraints())
	}
	if k2 := gs.Stats().K2; m < 0 || m > k2 {
		t.Fatalf("minted %d product variables, want 0 ≤ minted ≤ K₂ = %d", m, k2)
	}
	return m
}

// checkEquivalence asserts that ToQuad(gs) is equivalent to gs, given a
// satisfying assignment w of gs:
//
//   - ToQuad is deterministic and within the §4 bound;
//   - ExtendAssignment(w) satisfies the quad system (Ginger ⇒ quad);
//   - on any assignment whose product variables are ExtendAssignment's, row
//     j's residual A·B − C equals Ginger constraint j's, so row j holds iff
//     constraint j does;
//   - perturbing a quad witness never yields a quad-satisfying assignment
//     whose Ginger wires violate gs (quad ⇒ Ginger), a perturbed product
//     variable is always caught, and recomputing the products of a perturbed
//     Ginger part satisfies the quad system exactly when gs holds there.
//
// It returns the quad system and the extended witness.
func checkEquivalence(t *testing.T, f *field.Field, gs *GingerSystem, w []field.Element, rng *rand.Rand) (*QuadSystem, []field.Element) {
	t.Helper()
	if err := gs.Check(f, w); err != nil {
		t.Fatalf("generator produced an unsatisfied system: %v", err)
	}
	qs := ToQuad(f, gs)
	if again := ToQuad(f, gs); !reflect.DeepEqual(qs, again) {
		t.Fatal("ToQuad is not deterministic")
	}
	minted(t, gs, qs)
	qw := ExtendAssignment(f, gs, qs, w)
	if err := qs.Check(f, qw); err != nil {
		t.Fatalf("ginger witness does not extend: %v", err)
	}

	r := make([]field.Element, gs.NumVars+1)
	r[0] = f.One()
	for i := 1; i < len(r); i++ {
		r[i] = f.Rand(rng)
	}
	rq := ExtendAssignment(f, gs, qs, r)
	for j, c := range qs.Cons {
		got := f.Sub(f.Mul(c.A.Eval(f, rq), c.B.Eval(f, rq)), c.C.Eval(f, rq))
		want := f.Zero()
		if j < len(gs.Cons) {
			want = residual(f, gs.Cons[j], r)
		}
		if !f.Equal(got, want) {
			t.Fatalf("row %d: residual %v, ginger residual %v", j, f.ToBig(got), f.ToBig(want))
		}
	}

	for trial := 0; trial < 8; trial++ {
		bad := append([]field.Element(nil), qw...)
		wire := 1 + rng.Intn(qs.NumVars)
		bad[wire] = f.Add(bad[wire], f.RandNonZero(rng))
		gOK := gs.Check(f, bad[:gs.NumVars+1]) == nil
		if qs.Check(f, bad) == nil && (!gOK || wire > gs.NumVars) {
			t.Fatalf("perturbed wire %d: quad system accepts an assignment it should not", wire)
		}
		rep := ExtendAssignment(f, gs, qs, bad[:gs.NumVars+1])
		if qOK := qs.Check(f, rep) == nil; qOK != gOK {
			t.Fatalf("perturbed wire %d: quad satisfied %v, ginger satisfied %v", wire, qOK, gOK)
		}
	}
	return qs, qw
}

// TestToQuadPreservesSatisfiabilityRandom is the transform's core property
// over random systems of every row shape, on the 61-bit test field and on
// F128: checkEquivalence's two directions, and corrupted witnesses are
// still rejected.
func TestToQuadPreservesSatisfiabilityRandom(t *testing.T) {
	for _, f := range []*field.Field{field.FTest(), field.F128()} {
		rng := rand.New(rand.NewSource(77))
		var sawNative, sawMinted bool
		for trial := 0; trial < 80; trial++ {
			gs, w := randSatisfiableSystem(f, rng, 5+rng.Intn(15), 1+rng.Intn(12))
			qs, qw := checkEquivalence(t, f, gs, w, rng)
			m := qs.NumVars - gs.NumVars
			sawMinted = sawMinted || m > 0
			sawNative = sawNative || m < gs.Stats().K2
			// Corrupt a random wire; at least one of the systems must notice
			// (both should unless the wire is unused).
			bad := append([]field.Element(nil), qw...)
			wire := 1 + rng.Intn(gs.NumVars)
			bad[wire] = f.Add(bad[wire], f.One())
			usedSomewhere := false
			for _, c := range gs.Cons {
				for _, term := range c {
					if f.IsZero(term.Coeff) {
						continue // a zero-coefficient term doesn't constrain the wire
					}
					if term.A == wire || term.B == wire {
						usedSomewhere = true
					}
				}
			}
			if usedSomewhere && qs.Check(f, bad) == nil {
				// The corruption might cancel in every constraint only with
				// negligible probability for random systems; treat as failure.
				t.Fatalf("%s trial %d: corrupted wire %d accepted by quad system", f.Name(), trial, wire)
			}
		}
		if !sawNative || !sawMinted {
			t.Fatalf("%s: generator did not mix row shapes: native rows %v, minted z′ %v", f.Name(), sawNative, sawMinted)
		}
	}
}

// FuzzToQuad decodes an arbitrary Ginger system from the fuzzer's bytes —
// zero coefficients, repeated terms, squares, products on bound wires
// included — makes it hold at a random assignment by constant correction,
// and checks both directions of the equivalence.
func FuzzToQuad(fz *testing.F) {
	fz.Add(uint8(6), []byte{3, 4, 5, 7, 4, 6, 2, 3, 0, 250, 1, 5, 5, 9, 5, 6, 250, 4, 3, 4, 8, 5, 6})
	fz.Add(uint8(12), []byte{1, 1, 2, 2, 3, 4, 3, 5, 6, 4, 0, 7, 250, 9, 8, 8, 250, 2, 9, 0, 0, 0, 0})
	fz.Add(uint8(1), []byte{5, 1, 1})
	fz.Fuzz(func(t *testing.T, nv uint8, data []byte) {
		// 64 terms are plenty, and a short input keeps the fuzzer's
		// minimization of a new find from stalling the run.
		data = data[:min(len(data), 3*64)]
		f := field.FTest()
		nVars := 2 + int(nv%14)
		rng := rand.New(rand.NewSource(int64(nv)<<32 | int64(len(data))))
		w := make([]field.Element, nVars+1)
		w[0] = f.One()
		for i := 1; i <= nVars; i++ {
			w[i] = f.Rand(rng)
		}
		gs := &GingerSystem{NumVars: nVars, In: []int{1}, Out: []int{2}}
		var c GingerConstraint
		flush := func() {
			if len(c) > 0 {
				gs.Cons = append(gs.Cons, append(c, Term{Coeff: f.Neg(residual(f, c, w))}))
				c = nil
			}
		}
		for i := 0; i+2 < len(data); i += 3 {
			if data[i] >= 240 {
				flush()
				continue
			}
			c = append(c, Term{
				Coeff: f.FromInt64(int64(data[i]%19) - 9),
				A:     int(data[i+1]) % (nVars + 1),
				B:     int(data[i+2]) % (nVars + 1),
			})
		}
		flush()
		checkEquivalence(t, f, gs, w, rng)
	})
}

// TestNormalizeRoundTripRandom: normalization is a satisfiability-preserving
// bijection on wires for random systems.
func TestNormalizeRoundTripRandom(t *testing.T) {
	f := field.F128()
	rng := rand.New(rand.NewSource(78))
	for trial := 0; trial < 40; trial++ {
		gs, w := randSatisfiableSystem(f, rng, 6+rng.Intn(10), 1+rng.Intn(8))
		ns, perm := gs.Normalize()
		nw := perm.ApplyToAssignment(w)
		if err := ns.Check(f, nw); err != nil {
			t.Fatalf("trial %d: normalized system unsatisfied: %v", trial, err)
		}
		if ns.NumUnbound() != gs.NumUnbound() || ns.NumConstraints() != gs.NumConstraints() {
			t.Fatalf("trial %d: normalization changed sizes", trial)
		}
		qs := ToQuad(f, gs)
		nqs, qperm := qs.Normalize()
		if !nqs.IsCanonical() {
			t.Fatalf("trial %d: normalized quad not canonical", trial)
		}
		qw := ExtendAssignment(f, gs, qs, w)
		if err := nqs.Check(f, qperm.ApplyToAssignment(qw)); err != nil {
			t.Fatalf("trial %d: normalized quad unsatisfied: %v", trial, err)
		}
	}
}

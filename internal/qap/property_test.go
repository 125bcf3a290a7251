package qap

import (
	"math/rand"
	"testing"

	"zaatar/internal/constraint"
	"zaatar/internal/field"
)

// randQuadSystem builds a random satisfiable canonical quadratic-form
// system by drawing an assignment and deriving each constraint's pC from
// random pA, pB.
func randQuadSystem(f *field.Field, rng *rand.Rand, nVars, nCons int) (*constraint.QuadSystem, []field.Element) {
	w := make([]field.Element, nVars+1)
	w[0] = f.One()
	for i := 1; i <= nVars; i++ {
		w[i] = f.FromInt64(int64(rng.Intn(200) - 100))
	}
	nIn, nOut := 1, 1
	qs := &constraint.QuadSystem{NumVars: nVars}
	nz := nVars - nIn - nOut
	qs.In = []int{nz + 1}
	qs.Out = []int{nz + 2}

	randLC := func(maxTerms int) constraint.LinComb {
		var lc constraint.LinComb
		for t := 0; t < 1+rng.Intn(maxTerms); t++ {
			lc = append(lc, constraint.LinTerm{
				Coeff: f.FromInt64(int64(rng.Intn(9) - 4)),
				Var:   rng.Intn(nVars + 1),
			})
		}
		return lc
	}
	for j := 0; j < nCons; j++ {
		a := randLC(3)
		b := randLC(3)
		prod := f.Mul(a.Eval(f, w), b.Eval(f, w))
		// pC = prod as (constant) + correction through a random wire.
		v := rng.Intn(nVars + 1)
		coeff := f.FromInt64(int64(1 + rng.Intn(5)))
		cons := f.Sub(prod, f.Mul(coeff, w[v]))
		c := constraint.LinComb{
			{Coeff: coeff, Var: v},
			{Coeff: cons, Var: 0},
		}
		qs.Cons = append(qs.Cons, constraint.QuadConstraint{A: a, B: b, C: c})
	}
	return qs, w
}

// TestQAPSoundnessRandom: over random systems, BuildH succeeds exactly on
// satisfying assignments, and the divisibility identity holds at random τ.
func TestQAPSoundnessRandom(t *testing.T) {
	f := field.F128()
	rng := rand.New(rand.NewSource(99))
	rdr := testReader{rand.New(rand.NewSource(100))}
	for trial := 0; trial < 40; trial++ {
		nVars := 4 + rng.Intn(12)
		nCons := 1 + rng.Intn(10)
		qs, w := randQuadSystem(f, rng, nVars, nCons)
		if err := qs.Check(f, w); err != nil {
			t.Fatalf("trial %d: generator bug: %v", trial, err)
		}
		q, err := New(f, qs)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		h, err := q.BuildH(w)
		if err != nil {
			t.Fatalf("trial %d: BuildH on satisfying assignment: %v", trial, err)
		}
		// Identity at a random point.
		tau := f.Rand(rdr)
		qr, err := q.BuildQueries(tau)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		lhs := f.Mul(qr.DTau, f.InnerProduct(h, qr.QD))
		if !f.Equal(lhs, evalPw(q, w, tau)) {
			t.Fatalf("trial %d: D·H != P_w", trial)
		}
		// Corrupt a wire that appears in some constraint: BuildH must fail
		// (D no longer divides P_w) unless the corruption happens to keep
		// every constraint satisfied, which random coefficients make
		// negligible.
		bad := append([]field.Element(nil), w...)
		wire := 1 + rng.Intn(nVars)
		bad[wire] = f.Add(bad[wire], f.One())
		if qs.Check(f, bad) == nil {
			continue // corruption invisible to the system; skip
		}
		if _, err := q.BuildH(bad); err == nil {
			t.Fatalf("trial %d: BuildH accepted a non-satisfying assignment", trial)
		}
	}
}

// TestQueriesConsistentAcrossTau: for a fixed satisfying assignment the
// full check passes at many independent τ draws (completeness is
// deterministic, not probabilistic — Lemma A.2).
func TestQueriesConsistentAcrossTau(t *testing.T) {
	f := field.F220()
	rng := rand.New(rand.NewSource(101))
	rdr := testReader{rand.New(rand.NewSource(102))}
	qs, w := randQuadSystem(f, rng, 10, 8)
	q, err := New(f, qs)
	if err != nil {
		t.Fatal(err)
	}
	h, err := q.BuildH(w)
	if err != nil {
		t.Fatal(err)
	}
	z := w[1 : q.NZ+1]
	io := w[q.NZ+1:]
	passes := 0
	for i := 0; i < 25; i++ {
		qr, err := q.BuildQueries(f.Rand(rdr))
		if err != nil {
			continue
		}
		la, lb, lc := qr.IOTerms(f, io)
		lhs := f.Mul(qr.DTau, f.InnerProduct(qr.QD, h))
		rhs := f.Sub(
			f.Mul(f.Add(f.InnerProduct(qr.QA, z), la), f.Add(f.InnerProduct(qr.QB, z), lb)),
			f.Add(f.InnerProduct(qr.QC, z), lc))
		if !f.Equal(lhs, rhs) {
			t.Fatalf("draw %d: completeness violated", i)
		}
		passes++
	}
	if passes < 20 {
		t.Fatalf("too many τ collisions: only %d/25 draws usable", passes)
	}
}

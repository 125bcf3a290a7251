// Matrix: bypass the compiler and build the quadratic-form constraints for
// a fixed-size matrix-vector product by hand, then run the QAP-based linear
// PCP directly against in-memory proof oracles. This is the layer beneath
// the public API: internal/constraint → internal/qap → internal/pcp, the
// pipeline of §3 and Appendix A.
//
// The computation: y = M·x for a 3×3 constant matrix M — the kind of
// hand-tailored computation prior work (Ginger) specialized for, which
// Zaatar handles with the same machinery as everything else.
//
// Run with:
//
//	go run ./examples/matrix
package main

import (
	"fmt"
	"log"

	"zaatar/internal/constraint"
	"zaatar/internal/field"
	"zaatar/internal/pcp"
	"zaatar/internal/prg"
	"zaatar/internal/qap"
)

func main() {
	f := field.F128()
	one := f.One()

	// Wires 1..3: inputs x; wires 4..6: outputs y; wires 7..9: copies of x
	// (unbound), so no degree-2 term touches a bound wire.
	m := [3][3]int64{{2, 0, 1}, {1, 3, 0}, {0, 1, 1}}
	qs := &constraint.QuadSystem{
		NumVars: 9,
		In:      []int{1, 2, 3},
		Out:     []int{4, 5, 6},
	}
	// Copy constraints: (x_i)·1 = copy_i.
	for i := 0; i < 3; i++ {
		qs.Cons = append(qs.Cons, constraint.QuadConstraint{
			A: constraint.LinComb{{Coeff: one, Var: 1 + i}},
			B: constraint.LinComb{{Coeff: one, Var: 0}},
			C: constraint.LinComb{{Coeff: one, Var: 7 + i}},
		})
	}
	// Row constraints: (Σ_j m[i][j]·copy_j)·1 = y_i.
	for i := 0; i < 3; i++ {
		var row constraint.LinComb
		for j := 0; j < 3; j++ {
			if m[i][j] != 0 {
				row = append(row, constraint.LinTerm{Coeff: f.FromInt64(m[i][j]), Var: 7 + j})
			}
		}
		qs.Cons = append(qs.Cons, constraint.QuadConstraint{
			A: row,
			B: constraint.LinComb{{Coeff: one, Var: 0}},
			C: constraint.LinComb{{Coeff: one, Var: 4 + i}},
		})
	}

	// Canonical wire order, then the QAP encoding of Appendix A.1.
	canonical, perm := qs.Normalize()
	q, err := qap.New(f, canonical)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("QAP: %d constraints, divisor degree %d, %d non-zero matrix entries\n",
		q.NC, q.NC, q.NNZ())

	// The prover's side: a witness for x = (5, -2, 7).
	x := []int64{5, -2, 7}
	w := make([]field.Element, 10)
	w[0] = one
	var y [3]int64
	for i := 0; i < 3; i++ {
		w[1+i] = f.FromInt64(x[i])
		w[7+i] = f.FromInt64(x[i])
		for j := 0; j < 3; j++ {
			y[i] += m[i][j] * x[j]
		}
		w[4+i] = f.FromInt64(y[i])
	}
	cw := perm.ApplyToAssignment(w)
	if err := canonical.Check(f, cw); err != nil {
		log.Fatal(err)
	}

	// Proof vectors: z (the unbound assignment) and h (the coefficients of
	// H(t) = P_w(t)/D(t)).
	z, h, err := pcp.BuildProof(q, cw)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("proof: |z| = %d, |h| = %d (Ginger's z⊗z table would have %d entries)\n",
		len(z), len(h), len(z)*len(z))

	// The verifier's side: Figure 10 with the production parameters.
	v, err := pcp.NewZaatar(q, pcp.DefaultParams(), prg.NewFromSeed([]byte("matrix-example"), 0))
	if err != nil {
		log.Fatal(err)
	}
	io := cw[q.NZ+1:] // bound wires: inputs then outputs
	res := v.Check(v.Z.Answer(f, z), v.H.Answer(f, h), io)
	fmt.Printf("honest prover: verified = %v\n", res.OK)

	// A lying prover claims y_0+1; the divisibility test catches it.
	badIO := append([]field.Element(nil), io...)
	badIO[3] = f.Add(badIO[3], one)
	res = v.Check(v.Z.Answer(f, z), v.H.Answer(f, h), badIO)
	fmt.Printf("lying prover:  verified = %v (%s)\n", res.OK, res.Reason)
}

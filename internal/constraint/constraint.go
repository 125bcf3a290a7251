// Package constraint represents computations as algebraic constraint
// systems over a prime field, in the two dialects the paper uses:
//
//   - Ginger constraints (§2.2): each constraint is a sum of degree ≤ 2
//     terms that must equal zero, e.g. {3·Z1Z2 + 2·Z3Z4 + Z5 − Z6 = 0}.
//   - Zaatar constraints (§4, "quadratic form"): each constraint is
//     pA(W)·pB(W) = pC(W) with degree-1 polynomials pA, pB, pC — the shape
//     QAPs encode.
//
// The package also implements the transform from Ginger to Zaatar
// constraints (ToQuad: a Ginger constraint whose degree-2 terms share a
// factor already is a quadratic-form row; §4's fresh variable plus product
// constraint is paid only for degree-2 terms that do not share it) and the
// K/K₂ accounting that drives the cost-benefit analysis of Figure 3.
//
// Wire numbering: wire 0 is the constant 1; wires 1..NumVars are the
// computation's variables. An Assignment w assigns a field element to every
// wire with w[0] = 1. Inputs (X) and outputs (Y) are distinguished wire
// sets; all remaining wires are the unbound variables Z of §2.1.
package constraint

import (
	"fmt"

	"zaatar/internal/field"
)

// Term is coeff·w_A·w_B. A or B may be 0, in which case the corresponding
// factor is the constant 1: (A=0, B=0) is a constant term, exactly one of
// them 0 is a degree-1 term, both non-zero is a degree-2 term.
type Term struct {
	Coeff field.Element
	A, B  int
}

// Degree returns 0, 1, or 2.
func (t Term) Degree() int {
	switch {
	case t.A != 0 && t.B != 0:
		return 2
	case t.A != 0 || t.B != 0:
		return 1
	default:
		return 0
	}
}

// GingerConstraint is Σ terms = 0.
type GingerConstraint []Term

// LinTerm is coeff·w_Var (Var may be 0 for the constant slot).
type LinTerm struct {
	Coeff field.Element
	Var   int
}

// LinComb is a degree-1 polynomial Σ coeff·w_var.
type LinComb []LinTerm

// Eval evaluates the linear combination on an assignment.
func (lc LinComb) Eval(f *field.Field, w []field.Element) field.Element {
	acc := f.Zero()
	for _, t := range lc {
		acc = f.Add(acc, f.Mul(t.Coeff, w[t.Var]))
	}
	return acc
}

// QuadConstraint is pA·pB = pC in quadratic form.
type QuadConstraint struct {
	A, B, C LinComb
}

// GingerSystem is a set of Ginger (degree-2) constraints.
type GingerSystem struct {
	NumVars int   // wires 1..NumVars
	In      []int // input wire indices (the X variables)
	Out     []int // output wire indices (the Y variables)
	Cons    []GingerConstraint
}

// QuadSystem is a set of quadratic-form constraints (Zaatar's dialect).
type QuadSystem struct {
	NumVars int
	In      []int
	Out     []int
	Cons    []QuadConstraint
}

// NumConstraints returns |C|.
func (s *GingerSystem) NumConstraints() int { return len(s.Cons) }

// NumConstraints returns |C|.
func (s *QuadSystem) NumConstraints() int { return len(s.Cons) }

// NumUnbound returns |Z|: the variables that are neither inputs nor outputs.
func (s *GingerSystem) NumUnbound() int { return s.NumVars - len(s.In) - len(s.Out) }

// NumUnbound returns |Z|.
func (s *QuadSystem) NumUnbound() int { return s.NumVars - len(s.In) - len(s.Out) }

// Check verifies that w (indexed by wire, w[0] must be 1) satisfies every
// constraint; it returns an error naming the first violated constraint.
func (s *GingerSystem) Check(f *field.Field, w []field.Element) error {
	if err := checkAssignment(f, w, s.NumVars); err != nil {
		return err
	}
	for j, c := range s.Cons {
		acc := f.Zero()
		for _, t := range c {
			acc = f.Add(acc, f.Mul(t.Coeff, f.Mul(w[t.A], w[t.B])))
		}
		if !f.IsZero(acc) {
			return fmt.Errorf("constraint: ginger constraint %d violated (residual %v)", j, f.ToBig(acc))
		}
	}
	return nil
}

// Check verifies that w satisfies every quadratic-form constraint.
func (s *QuadSystem) Check(f *field.Field, w []field.Element) error {
	if err := checkAssignment(f, w, s.NumVars); err != nil {
		return err
	}
	for j, c := range s.Cons {
		lhs := f.Mul(c.A.Eval(f, w), c.B.Eval(f, w))
		rhs := c.C.Eval(f, w)
		if !f.Equal(lhs, rhs) {
			return fmt.Errorf("constraint: quadratic constraint %d violated", j)
		}
	}
	return nil
}

func checkAssignment(f *field.Field, w []field.Element, numVars int) error {
	if len(w) != numVars+1 {
		return fmt.Errorf("constraint: assignment has %d entries, want %d", len(w), numVars+1)
	}
	if !f.IsOne(w[0]) {
		return fmt.Errorf("constraint: w[0] must be the constant 1")
	}
	return nil
}

// Stats summarizes the size quantities of §4 / Figure 9 for a Ginger
// system: K is the total number of additive terms across all constraints
// and K2 is the number of distinct degree-2 terms.
type Stats struct {
	NumVars        int // |Z_ginger| + |x| + |y|
	NumUnbound     int // |Z_ginger|
	NumConstraints int // |C_ginger|
	K              int
	K2             int
}

// Stats computes the K/K₂ accounting for the system.
func (s *GingerSystem) Stats() Stats {
	seen := make(map[[2]int]bool)
	k := 0
	for _, c := range s.Cons {
		k += len(c)
		for _, t := range c {
			if t.Degree() == 2 {
				key := [2]int{t.A, t.B}
				if key[0] > key[1] {
					key[0], key[1] = key[1], key[0]
				}
				seen[key] = true
			}
		}
	}
	return Stats{
		NumVars:        s.NumVars,
		NumUnbound:     s.NumUnbound(),
		NumConstraints: len(s.Cons),
		K:              k,
		K2:             len(seen),
	}
}

// ProofVectorSizes returns (|u_ginger|, |u_zaatar|) for the computation:
// Ginger's proof vector is |Z|+|Z|² over the unbound variables, Zaatar's is
// |Z_zaatar| + |C_zaatar| (§3, §4).
func ProofVectorSizes(gs *GingerSystem, qs *QuadSystem) (uGinger, uZaatar int) {
	nz := gs.NumUnbound()
	return nz + nz*nz, qs.NumUnbound() + qs.NumConstraints()
}

// ToQuad converts a Ginger system into quadratic form, one row per Ginger
// constraint plus one row per product variable it has to mint.
//
// A constraint with degree-2 terms is emitted as it stands: its pivot z_p is
// the wire that is a factor of the most degree-2 terms (the lower index on
// ties), and the row is
//
//	(z_p)·(Σ κ_k·z_{j_k}) = −(everything else)
//
// with the left sum over the terms κ_k·z_p·z_{j_k}. A degree-2 term z_i·z_j
// without the pivot goes to the right-hand side as the §4 product variable
// z' = z_i·z_j, minted once system-wide and defined by the product row
// z_i·z_j = z'; product rows follow the originals in creation order. A
// linear-only constraint becomes (linear)·1 = 0.
//
// The result is equivalent to gs, not merely implied by it: under the
// product rows, row j holds iff Ginger constraint j holds, so any assignment
// satisfying the result satisfies gs on wires 0..gs.NumVars, and
// ExtendAssignment carries every solution of gs to one of the result. §4's
// identities become a bound: |Z_zaatar| − |Z_ginger| = |C_zaatar| −
// |C_ginger| = minted ≤ K2, reached only if every product a pivot absorbs
// is also minted for another row.
func ToQuad(f *field.Field, gs *GingerSystem) *QuadSystem {
	qs := &QuadSystem{
		NumVars: gs.NumVars,
		In:      append([]int(nil), gs.In...),
		Out:     append([]int(nil), gs.Out...),
	}
	prodVar := make(map[[2]int]int)
	var prodCons []QuadConstraint
	product := func(a, b int) int {
		key := [2]int{min(a, b), max(a, b)}
		v, ok := prodVar[key]
		if !ok {
			qs.NumVars++
			v = qs.NumVars
			prodVar[key] = v
			prodCons = append(prodCons, QuadConstraint{
				A: LinComb{{Coeff: f.One(), Var: key[0]}},
				B: LinComb{{Coeff: f.One(), Var: key[1]}},
				C: LinComb{{Coeff: f.One(), Var: v}},
			})
		}
		return v
	}
	one := LinComb{{Coeff: f.One(), Var: 0}}
	count := make(map[int]int)

	for _, c := range gs.Cons {
		p := pivot(c, count)
		if p == 0 {
			lin := make(LinComb, len(c))
			for i, t := range c {
				lin[i] = LinTerm{Coeff: t.Coeff, Var: t.A + t.B} // at most one is non-zero
			}
			qs.Cons = append(qs.Cons, QuadConstraint{A: lin, B: one})
			continue
		}
		var b, rhs LinComb
		for _, t := range c {
			switch {
			case t.Degree() < 2:
				rhs = append(rhs, LinTerm{Coeff: f.Neg(t.Coeff), Var: t.A + t.B})
			case t.A == p:
				b = append(b, LinTerm{Coeff: t.Coeff, Var: t.B})
			case t.B == p:
				b = append(b, LinTerm{Coeff: t.Coeff, Var: t.A})
			default:
				rhs = append(rhs, LinTerm{Coeff: f.Neg(t.Coeff), Var: product(t.A, t.B)})
			}
		}
		qs.Cons = append(qs.Cons, QuadConstraint{A: LinComb{{Coeff: f.One(), Var: p}}, B: b, C: rhs})
	}
	qs.Cons = append(qs.Cons, prodCons...)
	return qs
}

// pivot returns the wire that is a factor of the most degree-2 terms of c,
// the lower index on ties, or 0 if c has none. The choice depends only on
// the terms, never on map order (count is scratch space).
func pivot(c GingerConstraint, count map[int]int) int {
	clear(count)
	for _, t := range c {
		if t.Degree() == 2 {
			count[t.A]++
			if t.B != t.A {
				count[t.B]++
			}
		}
	}
	best := 0
	for _, t := range c {
		if t.Degree() != 2 {
			continue
		}
		for _, w := range [2]int{t.A, t.B} {
			if best == 0 || count[w] > count[best] || (count[w] == count[best] && w < best) {
				best = w
			}
		}
	}
	return best
}

// NNZ returns the number of non-zero entries of the system's A, B and C
// matrices: per row and per side, the variables whose summed coefficient is
// non-zero. It is the entry count qap.New stores, and the verifier's query
// construction and the prover's aggregation pay one multiplication each.
func (s *QuadSystem) NNZ(f *field.Field) int {
	sum := make(map[int]field.Element)
	n := 0
	for _, c := range s.Cons {
		for _, lc := range [3]LinComb{c.A, c.B, c.C} {
			clear(sum)
			for _, t := range lc {
				sum[t.Var] = f.Add(sum[t.Var], t.Coeff)
			}
			for _, v := range sum {
				if !f.IsZero(v) {
					n++
				}
			}
		}
	}
	return n
}

// ExtendAssignment completes a satisfying assignment of the original Ginger
// system to the quadratic system produced by ToQuad by computing the product
// variables. The input w must have gs.NumVars+1 entries; the result has
// qs.NumVars+1.
func ExtendAssignment(f *field.Field, gs *GingerSystem, qs *QuadSystem, w []field.Element) []field.Element {
	out := make([]field.Element, qs.NumVars+1)
	copy(out, w)
	// Product constraints are emitted after the rows of the originals, in
	// creation order, and each defines exactly the next fresh variable.
	next := gs.NumVars + 1
	for _, c := range qs.Cons[len(gs.Cons):] {
		a := c.A.Eval(f, out)
		b := c.B.Eval(f, out)
		out[next] = f.Mul(a, b)
		next++
	}
	return out
}

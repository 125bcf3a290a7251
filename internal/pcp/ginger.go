package pcp

import (
	"fmt"
	"io"

	"zaatar/internal/constraint"
	"zaatar/internal/field"
)

// GingerPCP is the classical linear PCP of Arora et al. as used by Ginger
// (§2.2): the proof is the pair of linear functions π₁(·) = ⟨·, z⟩ and
// π₂(·) = ⟨·, z⊗z⟩, so the proof vector has length |Z| + |Z|² — the
// quadratic blow-up that Zaatar's QAP encoding removes.
//
// Query layout, per repetition r:
//
//	π₁ queries: ρ_lin triples (q5, q6, q7=q5+q6), two raw vectors
//	            (qq_a, qq_b) for the quadratic-correction test, then the
//	            self-corrected circuit query γ₁+q5⁰;
//	π₂ queries: ρ_lin triples over F^{|Z|²}, then qq_a⊗qq_b+q8⁰ and γ₂+q8⁰.
//
// As in ZaatarPCP, the triples' third queries and the self-corrected ones
// are sums of base vectors (see QueryList), so no π₂ query beyond q8, q9,
// qq_a⊗qq_b and γ₂ costs another |Z|²-element vector.
//
// Batching requires the γ queries to be instance-independent, so the
// constraint system must never multiply a bound (input/output) wire into a
// degree-2 term; the compiler guarantees this by isolating IO wires behind
// copy constraints. Bound-wire contributions then fold into the per-instance
// constant γ₀(x, y), which the verifier computes itself (the |x|+|y| term in
// Figure 3's "Process responses" row).
type GingerPCP struct {
	F      *field.Field
	Sys    *constraint.GingerSystem
	Params Params
	NZ     int

	// Z1 and Z2 are the query lists to π₁ (vectors of length NZ) and π₂
	// (length NZ²): per repetition 3ρ_lin+3 and 3ρ_lin+2 logical queries
	// over 2ρ_lin+3 and 2ρ_lin+2 base vectors.
	Z1, Z2 QueryList

	reps []*gingerRep
}

type gingerRep struct {
	// γ₀(x, y) = gammaConst + ⟨ioCoeffs, io⟩, computed per instance.
	gammaConst field.Element
	ioCoeffs   []field.Element
}

// MaxGingerProofVars caps |Z| for a materialized Ginger proof; beyond this
// the π₂ query vectors (|Z|² elements each) stop fitting in memory, which
// is precisely Ginger's practicality problem — larger configurations are
// handled by the cost model, as in the paper's own evaluation (§5.1).
const MaxGingerProofVars = 2048

// NewGinger draws a batch's queries for the Ginger PCP. The system must be
// in canonical wire order with no degree-2 term touching a bound wire.
func NewGinger(f *field.Field, gs *constraint.GingerSystem, params Params, rnd io.Reader) (*GingerPCP, error) {
	if params.RhoLin < 1 || params.Rho < 1 {
		return nil, fmt.Errorf("pcp: invalid params %+v", params)
	}
	if err := ValidateGingerForPCP(gs); err != nil {
		return nil, err
	}
	nz := gs.NumUnbound()
	if nz > MaxGingerProofVars {
		return nil, fmt.Errorf("pcp: ginger proof needs |Z|² = %d² elements; |Z| capped at %d (use the cost model beyond that)", nz, MaxGingerProofVars)
	}
	g := &GingerPCP{F: f, Sys: gs, Params: params, NZ: nz}
	nio := len(gs.In) + len(gs.Out)

	for r := 0; r < params.Rho; r++ {
		var firstZ1, firstZ2 int
		for l := 0; l < params.RhoLin; l++ {
			q5 := f.RandVector(nz, rnd)
			q6 := f.RandVector(nz, rnd)
			i5 := g.Z1.triple(q5, q6)
			q8 := f.RandVector(nz*nz, rnd)
			q9 := f.RandVector(nz*nz, rnd)
			i8 := g.Z2.triple(q8, q9)
			if l == 0 {
				firstZ1, firstZ2 = i5, i8
			}
		}
		// Quadratic-correction queries.
		qqa := f.RandVector(nz, rnd)
		qqb := f.RandVector(nz, rnd)
		g.Z1.query(g.Z1.draw(qqa))
		g.Z1.query(g.Z1.draw(qqb))
		outer := make([]field.Element, nz*nz)
		for i := 0; i < nz; i++ {
			for k := 0; k < nz; k++ {
				outer[i*nz+k] = f.Mul(qqa[i], qqb[k])
			}
		}
		g.Z2.query(g.Z2.draw(outer), firstZ2)

		// Circuit queries: γ₁, γ₂ from per-constraint randomness v_j
		// (the ρ·(c·|C| + f·K)/β cost of Figure 3).
		rep := &gingerRep{gammaConst: f.Zero(), ioCoeffs: make([]field.Element, nio)}
		gamma1 := make([]field.Element, nz)
		gamma2 := make([]field.Element, nz*nz)
		for _, c := range gs.Cons {
			vj := f.Rand(rnd)
			for _, t := range c {
				cv := f.Mul(vj, t.Coeff)
				switch t.Degree() {
				case 2:
					gamma2[(t.A-1)*nz+(t.B-1)] = f.Add(gamma2[(t.A-1)*nz+(t.B-1)], cv)
				case 1:
					v := t.A
					if v == 0 {
						v = t.B
					}
					if v <= nz {
						gamma1[v-1] = f.Add(gamma1[v-1], cv)
					} else {
						rep.ioCoeffs[v-nz-1] = f.Add(rep.ioCoeffs[v-nz-1], cv)
					}
				default:
					rep.gammaConst = f.Add(rep.gammaConst, cv)
				}
			}
		}
		g.Z1.query(g.Z1.draw(gamma1), firstZ1)
		g.Z2.query(g.Z2.draw(gamma2), firstZ2)
		g.reps = append(g.reps, rep)
	}
	return g, nil
}

// z1PerRep and z2PerRep give per-repetition logical query counts for the
// two oracles.
func (p Params) z1PerRep() int { return 3*p.RhoLin + 3 }
func (p Params) z2PerRep() int { return 3*p.RhoLin + 2 }

// BuildGingerProof materializes the Ginger proof vector (z, z⊗z) from a
// satisfying assignment of the canonical system.
func BuildGingerProof(f *field.Field, gs *constraint.GingerSystem, w []field.Element) (z, zz []field.Element, err error) {
	if len(w) != gs.NumVars+1 {
		return nil, nil, fmt.Errorf("pcp: assignment has %d entries, want %d", len(w), gs.NumVars+1)
	}
	nz := gs.NumUnbound()
	if nz > MaxGingerProofVars {
		return nil, nil, fmt.Errorf("pcp: |Z| = %d exceeds the materialization cap %d", nz, MaxGingerProofVars)
	}
	z = append([]field.Element(nil), w[1:nz+1]...)
	zz = make([]field.Element, nz*nz)
	for i := 0; i < nz; i++ {
		for k := 0; k < nz; k++ {
			zz[i*nz+k] = f.Mul(z[i], z[k])
		}
	}
	return z, zz, nil
}

// Check runs Ginger's linearity, quadratic-correction and circuit tests for
// one instance. io holds the instance's bound values in wire order.
func (g *GingerPCP) Check(z1Resp, z2Resp []field.Element, io []field.Element) CheckResult {
	f := g.F
	if len(z1Resp) != g.Z1.Len() || len(z2Resp) != g.Z2.Len() {
		return CheckResult{Reason: "response count mismatch"}
	}
	if len(io) != len(g.Sys.In)+len(g.Sys.Out) {
		return CheckResult{Reason: "io length mismatch"}
	}
	p1, p2 := g.Params.z1PerRep(), g.Params.z2PerRep()
	for r := 0; r < g.Params.Rho; r++ {
		r1 := z1Resp[r*p1 : (r+1)*p1]
		r2 := z2Resp[r*p2 : (r+1)*p2]
		for l := 0; l < g.Params.RhoLin; l++ {
			if !f.Equal(f.Add(r1[3*l], r1[3*l+1]), r1[3*l+2]) {
				return CheckResult{Reason: fmt.Sprintf("π₁ linearity test failed (rep %d, iter %d)", r, l)}
			}
			if !f.Equal(f.Add(r2[3*l], r2[3*l+1]), r2[3*l+2]) {
				return CheckResult{Reason: fmt.Sprintf("π₂ linearity test failed (rep %d, iter %d)", r, l)}
			}
		}
		base1 := 3 * g.Params.RhoLin
		base2 := 3 * g.Params.RhoLin
		// Quadratic correction: π₂(qq_a⊗qq_b + q8⁰) − π₂(q8⁰) == π₁(qq_a)·π₁(qq_b).
		lhs := f.Sub(r2[base2], r2[0])
		rhs := f.Mul(r1[base1], r1[base1+1])
		if !f.Equal(lhs, rhs) {
			return CheckResult{Reason: fmt.Sprintf("quadratic correction test failed (rep %d)", r)}
		}
		// Circuit test: (π₁(γ₁+q5⁰)−π₁(q5⁰)) + (π₂(γ₂+q8⁰)−π₂(q8⁰)) + γ₀(x,y) == 0.
		rep := g.reps[r]
		gamma0 := rep.gammaConst
		for k := range io {
			gamma0 = f.Add(gamma0, f.Mul(rep.ioCoeffs[k], io[k]))
		}
		total := f.Add(f.Sub(r1[base1+2], r1[0]), f.Add(f.Sub(r2[base2+1], r2[0]), gamma0))
		if !f.IsZero(total) {
			return CheckResult{Reason: fmt.Sprintf("circuit test failed (rep %d)", r)}
		}
	}
	return CheckResult{OK: true}
}

// ValidateGingerForPCP checks the batching precondition: no degree-2 term
// may touch a bound (input/output) wire.
func ValidateGingerForPCP(gs *constraint.GingerSystem) error {
	nz := gs.NumUnbound()
	for j, c := range gs.Cons {
		for _, t := range c {
			if t.Degree() == 2 && (t.A > nz || t.B > nz) {
				return fmt.Errorf("pcp: constraint %d has a degree-2 term touching a bound wire; isolate IO first", j)
			}
		}
	}
	return nil
}

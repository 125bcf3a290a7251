package pcp

import (
	"fmt"
	"io"

	"zaatar/internal/field"
	"zaatar/internal/qap"
)

// ZaatarPCP holds one batch's worth of verifier state for the QAP-based
// linear PCP of Figure 10: the queries (shared by every instance in the
// batch) and the per-repetition τ state needed to finish each check.
//
// Query layout, per repetition r:
//
//	π_z queries: ρ_lin triples (q5, q6, q7=q5+q6), then the three
//	             divisibility-correction queries q1=q_a+q5⁰, q2=q_b+q5⁰,
//	             q3=q_c+q5⁰ (self-corrected with the repetition's first
//	             linearity query q5⁰, exactly as in Figure 10);
//	π_h queries: ρ_lin triples (q8, q9, q10=q8+q9), then q4=q_d+q8⁰.
//
// Only q5, q6, q8, q9 and the τ-derived q_a..q_d are vectors; every other
// query is a sum of them (see QueryList).
type ZaatarPCP struct {
	Q      *qap.QAP
	Params Params

	// Z and H are the query lists for the two oracles, in the layout above:
	// per repetition 3ρ_lin+3 and 3ρ_lin+1 logical queries over 2ρ_lin+3
	// and 2ρ_lin+1 base vectors.
	Z, H QueryList

	reps []*qap.Queries // per-repetition τ-derived state
}

// zPerRep and hPerRep give the number of logical queries per repetition for
// each oracle; their sum is ℓ′ = 6ρ_lin + 4.
func (p Params) zPerRep() int { return 3*p.RhoLin + 3 }
func (p Params) hPerRep() int { return 3*p.RhoLin + 1 }

// NewZaatar draws a batch's queries using randomness from rnd. Figure 3's
// cost accounting for this step: the linearity queries are
// computation-oblivious (cost proportional to |u|), while the τ-derived
// q_a..q_d queries are computation-specific (cost (f_div+5f)|C| + f·K + 3f·K₂).
func NewZaatar(q *qap.QAP, params Params, rnd io.Reader) (*ZaatarPCP, error) {
	if params.RhoLin < 1 || params.Rho < 1 {
		return nil, fmt.Errorf("pcp: invalid params %+v", params)
	}
	f := q.F
	z := &ZaatarPCP{Q: q, Params: params}
	nz := q.NZ
	nh := q.NC + 1

	for r := 0; r < params.Rho; r++ {
		// Linearity queries.
		var firstZ, firstH int
		for l := 0; l < params.RhoLin; l++ {
			q5 := f.RandVector(nz, rnd)
			q6 := f.RandVector(nz, rnd)
			i5 := z.Z.triple(q5, q6)
			q8 := f.RandVector(nh, rnd)
			q9 := f.RandVector(nh, rnd)
			i8 := z.H.triple(q8, q9)
			if l == 0 {
				firstZ, firstH = i5, i8
			}
		}
		// Divisibility-correction queries from a fresh τ (redrawn on the
		// negligible-probability collision with an interpolation point).
		var qr *qap.Queries
		for {
			var err error
			qr, err = q.BuildQueries(f.Rand(rnd))
			if err == nil {
				break
			}
			if err != qap.ErrTauCollision {
				return nil, err
			}
		}
		z.reps = append(z.reps, qr)
		z.Z.query(z.Z.draw(qr.QA), firstZ)
		z.Z.query(z.Z.draw(qr.QB), firstZ)
		z.Z.query(z.Z.draw(qr.QC), firstZ)
		z.H.query(z.H.draw(qr.QD), firstH)
	}
	return z, nil
}

// BuildProof computes the proof vectors (z, h) for a satisfying assignment
// w of the QAP's constraint system: z is the unbound part of w, h the
// values of H(t) on the shifted points |C|+1..2|C|+1 (§3, "The proof
// vector", with H in the evaluation basis; see internal/qap). Together they
// define the prover's linear functions π_z and π_h.
func BuildProof(q *qap.QAP, w []field.Element) (z, h []field.Element, err error) {
	h, err = q.BuildH(w)
	if err != nil {
		return nil, nil, err
	}
	z = append([]field.Element(nil), w[1:q.NZ+1]...)
	return z, h, nil
}

// CheckResult reports the outcome of the PCP checks for one instance.
type CheckResult struct {
	OK     bool
	Reason string // human-readable failure reason, empty when OK
}

// Check runs all of Figure 10's tests against the responses for one
// instance. zResp and hResp must line up with the logical queries of Z and
// H; io holds the instance's input and output values in wire order.
func (z *ZaatarPCP) Check(zResp, hResp []field.Element, io []field.Element) CheckResult {
	f := z.Q.F
	if len(zResp) != z.Z.Len() || len(hResp) != z.H.Len() {
		return CheckResult{Reason: "response count mismatch"}
	}
	zp, hp := z.Params.zPerRep(), z.Params.hPerRep()
	for r := 0; r < z.Params.Rho; r++ {
		zr := zResp[r*zp : (r+1)*zp]
		hr := hResp[r*hp : (r+1)*hp]
		// Linearity tests.
		for l := 0; l < z.Params.RhoLin; l++ {
			if !f.Equal(f.Add(zr[3*l], zr[3*l+1]), zr[3*l+2]) {
				return CheckResult{Reason: fmt.Sprintf("π_z linearity test failed (rep %d, iter %d)", r, l)}
			}
			if !f.Equal(f.Add(hr[3*l], hr[3*l+1]), hr[3*l+2]) {
				return CheckResult{Reason: fmt.Sprintf("π_h linearity test failed (rep %d, iter %d)", r, l)}
			}
		}
		// Divisibility correction test. The self-corrected answers are
		// π(q1)−π(q5⁰) etc.; V adds the bound-variable terms itself.
		qr := z.reps[r]
		la, lb, lc := qr.IOTerms(f, io)
		base := 3 * z.Params.RhoLin
		aTau := f.Add(f.Sub(zr[base], zr[0]), la)
		bTau := f.Add(f.Sub(zr[base+1], zr[0]), lb)
		cTau := f.Add(f.Sub(zr[base+2], zr[0]), lc)
		hTau := f.Sub(hr[3*z.Params.RhoLin], hr[0])
		lhs := f.Mul(qr.DTau, hTau)
		rhs := f.Sub(f.Mul(aTau, bTau), cTau)
		if !f.Equal(lhs, rhs) {
			return CheckResult{Reason: fmt.Sprintf("divisibility correction test failed (rep %d)", r)}
		}
	}
	return CheckResult{OK: true}
}

// Package costmodel implements the analytical cost model of Figure 3: the
// per-instance CPU cost of the prover and verifier under Zaatar and Ginger,
// as closed-form functions of microbenchmark-calibrated cryptographic and
// field-operation costs.
//
// The paper itself relies on this model in two ways, which this
// reproduction mirrors exactly (§5.1):
//
//   - Ginger's end-to-end costs at realistic input sizes are *estimated*
//     from the model ("the computations would be too expensive under
//     Ginger") with parameters estimated by microbenchmarks; and
//   - the model is validated against Zaatar's measured costs (the paper
//     found empirical CPU costs 5–15% above the model's predictions).
//
// All costs are in seconds.
package costmodel

import (
	"math"

	"zaatar/internal/pcp"
)

// OpCosts holds the microbenchmark parameters of §5.1 (seconds per
// operation).
type OpCosts struct {
	E     float64 // encrypt a field element
	D     float64 // decrypt (to the exponent group)
	H     float64 // ciphertext add plus scalar multiply
	F     float64 // field multiplication (with reduction)
	FLazy float64 // field multiplication without per-term reduction
	FDiv  float64 // field division (inversion)
	C     float64 // pseudorandomly generate a field element
}

// Quantities holds the size parameters of one computation instance.
type Quantities struct {
	T float64 // local running time of Ψ in seconds

	ZGinger int // |Z_ginger|: unbound variables in the Ginger encoding
	CGinger int // |C_ginger|
	ZZaatar int // |Z_zaatar| ≤ |Z_ginger| + K2 (§4's bound; constraint.ToQuad mints fewer)
	CZaatar int // |C_zaatar| ≤ |C_ginger| + K2, with the same number minted
	K       int // additive terms in C_ginger
	K2      int // distinct degree-2 terms in C_ginger
	NNZ     int // non-zero entries of C_zaatar's A, B, C (QuadSystem.NNZ = qap's NNZ)
	NX, NY  int // |x|, |y|

	Params pcp.Params
}

// UGinger returns |u_ginger| = |Z| + |Z|².
func (q Quantities) UGinger() float64 {
	z := float64(q.ZGinger)
	return z + z*z
}

// UZaatar returns |u_zaatar| = |Z_zaatar| + |C_zaatar|.
func (q Quantities) UZaatar() float64 {
	return float64(q.ZZaatar) + float64(q.CZaatar)
}

func (q Quantities) rho() float64    { return float64(q.Params.Rho) }
func (q Quantities) rhoLin() float64 { return float64(q.Params.RhoLin) }
func (q Quantities) ell() float64    { return float64(q.Params.GingerHighOrderQueries()) }

// ellP is ℓ′ = 6ρ_lin+4, the queries per repetition Figure 3 charges at one
// f_lazy each in the prover's answers and one f each in the verifier's fold
// of t. The charge is kept on purpose as the paper's accounting. The
// implementation pays one inner product and one fold term per base vector,
// 4ρ_lin+4 per repetition (internal/pcp's QueryList); every other logical
// query is a sum of those. So the model overstates both terms by a factor
// of (6ρ_lin+4)/(4ρ_lin+4).
func (q Quantities) ellP() float64 { return float64(q.Params.ZaatarQueriesPerRepetition()) }

// log2 guards against log(0).
func log2(x float64) float64 {
	if x < 2 {
		return 1
	}
	return math.Log2(x)
}

// ProverConstructGinger is Figure 3's "Construct proof vector" for Ginger:
// T + f·|Z|².
func ProverConstructGinger(p OpCosts, q Quantities) float64 {
	z := float64(q.ZGinger)
	return q.T + p.F*z*z
}

// zaatarConstructMults counts the field multiplications of this code base's
// Zaatar proof-vector construction (internal/qap's BuildH), which produces
// H(t) in the evaluation basis: one per non-zero entry of A, B, C to
// aggregate the rows at the witness (§A.3's K + 3K₂ under the paper's
// transform), six NTTs of N = nextPow2(2|C|+1) points at (N/2)·log₂N each,
// 3N pointwise products against the kernel, and about 8|C| for the
// weights, the satisfaction check and the quotient itself.
func zaatarConstructMults(c, nnz int) float64 {
	logN := log2ceil(2*c + 1)
	N := float64(int(1) << logN)
	return float64(nnz) + 3*N*float64(logN) + 3*N + 8*float64(c)
}

// ProverConstructZaatar is T plus f per multiplication of the evaluation-
// basis construction this code base runs (see zaatarConstructMults) — not
// Figure 3's entry, which ProverConstructZaatarPaper keeps.
func ProverConstructZaatar(p OpCosts, q Quantities) float64 {
	return q.T + p.F*zaatarConstructMults(q.CZaatar, q.NNZ)
}

// ProverConstructZaatarPaper is Figure 3's "Construct proof vector" for
// Zaatar as printed, T + 3f·|C_zaatar|·log²|C_zaatar|: the §A.3 pipeline of
// three subproduct-tree interpolations, a product and a division. Only the
// Figure 3 reproduction uses it; nothing here runs that pipeline.
func ProverConstructZaatarPaper(p OpCosts, q Quantities) float64 {
	c := float64(q.CZaatar)
	l := log2(c)
	return q.T + 3*p.F*c*l*l
}

// ProverIssueGinger is (h + (ρℓ+1)·f_lazy)·|u_ginger|: the homomorphic
// commitment evaluation plus one inner-product term per query per proof
// element (footnote 8: the response multiplications use lazy reduction).
func ProverIssueGinger(p OpCosts, q Quantities) float64 {
	return (p.H + (q.rho()*q.ell()+1)*p.FLazy) * q.UGinger()
}

// ProverIssueZaatar is (h + (ρℓ′+1)·f_lazy)·|u_zaatar|.
func ProverIssueZaatar(p OpCosts, q Quantities) float64 {
	return (p.H + (q.rho()*q.ellP()+1)*p.FLazy) * q.UZaatar()
}

// ProverGinger is Ginger's total per-instance prover cost.
func ProverGinger(p OpCosts, q Quantities) float64 {
	return ProverConstructGinger(p, q) + ProverIssueGinger(p, q)
}

// ProverZaatar is Zaatar's total per-instance prover cost.
func ProverZaatar(p OpCosts, q Quantities) float64 {
	return ProverConstructZaatar(p, q) + ProverIssueZaatar(p, q)
}

// ProverZaatarPaper is Figure 3's Zaatar prover column as printed.
func ProverZaatarPaper(p OpCosts, q Quantities) float64 {
	return ProverConstructZaatarPaper(p, q) + ProverIssueZaatar(p, q)
}

// VerifierSetupGinger is the per-batch (un-amortized) verifier query
// construction cost for Ginger: ρ·(c·|C| + f·K) computation-specific plus
// (e + 2c + ρ(2ρ_lin·c + (ℓ+1)·f))·|u| computation-oblivious.
func VerifierSetupGinger(p OpCosts, q Quantities) float64 {
	specific := q.rho() * (p.C*float64(q.CGinger) + p.F*float64(q.K))
	oblivious := (p.E + 2*p.C + q.rho()*(2*q.rhoLin()*p.C+(q.ell()+1)*p.F)) * q.UGinger()
	return specific + oblivious
}

// VerifierSetupZaatar is ρ·(c + (f_div+5f)·|C| + f·NNZ) plus
// (e + 2c + ρ(2ρ_lin·c + ℓ′·f))·|u_zaatar|: Figure 3 charges f·(K + 3K₂)
// for the query construction, the non-zero count of the paper's transform;
// this charges the non-zero count of the system that runs.
func VerifierSetupZaatar(p OpCosts, q Quantities) float64 {
	specific := q.rho() * (p.C + (p.FDiv+5*p.F)*float64(q.CZaatar) + p.F*float64(q.NNZ))
	oblivious := (p.E + 2*p.C + q.rho()*(2*q.rhoLin()*p.C+q.ellP()*p.F)) * q.UZaatar()
	return specific + oblivious
}

// VerifierPerInstanceGinger is "Process responses": d + ρ(2ℓ+|x|+|y|)·f.
func VerifierPerInstanceGinger(p OpCosts, q Quantities) float64 {
	return p.D + q.rho()*(2*q.ell()+float64(q.NX)+float64(q.NY))*p.F
}

// VerifierPerInstanceZaatar is d + ρ(ℓ′+3|x|+3|y|)·f.
func VerifierPerInstanceZaatar(p OpCosts, q Quantities) float64 {
	return p.D + q.rho()*(q.ellP()+3*float64(q.NX)+3*float64(q.NY))*p.F
}

// Breakeven returns the smallest batch size β at which outsourcing wins:
// the β with β·local ≥ setup + β·perInstance, i.e. setup/(local −
// perInstance) rounded up. It returns +Inf when verification per instance
// costs more than local execution (outsourcing never pays off).
func Breakeven(setup, perInstance, local float64) float64 {
	if local <= perInstance {
		return math.Inf(1)
	}
	b := setup / (local - perInstance)
	return math.Ceil(b)
}

// BreakevenGinger computes Ginger's break-even batch size.
func BreakevenGinger(p OpCosts, q Quantities) float64 {
	return Breakeven(VerifierSetupGinger(p, q), VerifierPerInstanceGinger(p, q), q.T)
}

// BreakevenZaatar computes Zaatar's break-even batch size.
func BreakevenZaatar(p OpCosts, q Quantities) float64 {
	return Breakeven(VerifierSetupZaatar(p, q), VerifierPerInstanceZaatar(p, q), q.T)
}

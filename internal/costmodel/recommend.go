package costmodel

import (
	"zaatar/internal/constraint"
	"zaatar/internal/field"
	"zaatar/internal/pcp"
)

// RecommendProtocol implements footnote 5 of §4 (the hybrid idea later
// developed by Vu et al. [57]): the degenerate computations for which
// Ginger's encoding beats Zaatar's — dense degree-2 forms where K₂
// approaches (|Z|²−|Z|)/2 — are detectable from the compiled constraint
// statistics, so the system can simply pick the encoding with the smaller
// proof vector. Programs produced by this repository's compiler always
// recommend Zaatar (their degree-2 rows share a factor, so constraint.ToQuad
// mints almost nothing and |u_zaatar| stays near |Z| + |C|); hand-written
// constraint systems can tip the other way. The result is a pcp backend
// name.
func RecommendProtocol(gs *constraint.GingerSystem, qs *constraint.QuadSystem) string {
	ug, uz := constraint.ProofVectorSizes(gs, qs)
	if ug < uz {
		return pcp.BackendGinger
	}
	return pcp.BackendZaatar
}

// SumcheckQuantities holds the size parameters of the GKR/sum-check lane:
// the layered-circuit statistics, in the shape constraint.LayeredCircuit's
// Stats reports them.
type SumcheckQuantities struct {
	Stats constraint.LayerStats
}

// sumcheckProverMults counts the field multiplications of the sum-check
// prover per instance: the circuit evaluation and the two tables each layer
// folds its terms into (two per term each), plus work linear in each layer's
// width below it — the two product sum-checks, whose halving rounds cover
// about the live width with five multiplications per pair each, the eq
// tables for u* and v* and the next layer's gate table. Σ widths is
// TotalGates.
func sumcheckProverMults(st constraint.LayerStats) float64 {
	return float64(6*st.TotalTerms + 15*st.TotalGates)
}

// sumcheckVerifierMults counts the verifier's replay: the wiring check
// (three per term), the eq tables for u* and v* and the next gate table
// (four per slot), and five per round check, with every layer's 2b rounds
// bounded by the widest layer's.
func sumcheckVerifierMults(st constraint.LayerStats) float64 {
	rounds := st.Depth * 2 * log2ceil(st.MaxWidth)
	return float64(3*st.TotalTerms + 4*st.TotalGates + 5*rounds)
}

func log2ceil(n int) int {
	b := 0
	for 1<<b < n {
		b++
	}
	return b
}

// ProverSumcheck is the sum-check lane's per-instance prover cost: pure
// field work — no ciphertext operation appears anywhere on this lane, which
// is the entire point of the cheap-prover lane.
func ProverSumcheck(p OpCosts, q SumcheckQuantities) float64 {
	return sumcheckProverMults(q.Stats) * p.F
}

// VerifierPerInstanceSumcheck is the sum-check verifier's per-instance
// replay cost (transcript challenges priced as pseudorandom generations).
func VerifierPerInstanceSumcheck(p OpCosts, q SumcheckQuantities) float64 {
	st := q.Stats
	challenges := float64(st.Depth * (2*log2ceil(st.MaxWidth) + 2))
	return sumcheckVerifierMults(st)*p.F + challenges*p.C
}

// EstimateSumcheck groups the sum-check lane's predictions in the Figure 3
// phase shape. Verifier setup is one PRG salt draw (effectively free);
// proof construction is the circuit evaluation; issuing is the transcript
// prover.
func EstimateSumcheck(p OpCosts, q SumcheckQuantities) PhaseEstimate {
	evalCost := float64(2*q.Stats.TotalTerms) * p.F
	return PhaseEstimate{
		VerifierSetup:       p.C,
		ProverConstruct:     evalCost,
		ProverIssue:         ProverSumcheck(p, q) - evalCost,
		VerifierPerInstance: VerifierPerInstanceSumcheck(p, q),
	}
}

// cryptoFieldRatio approximates h/f from the §5.1 microbenchmarks: one
// ciphertext add-and-scalar-multiply costs on the order of 10⁴ field
// multiplications. The breakeven below only needs the order of magnitude.
const cryptoFieldRatio = 10_000

// RecommendBackend generalizes RecommendProtocol to a three-way breakeven.
// If the constraint system stratifies into a layered circuit, the
// sum-check lane is compared against the recommended commitment lane's
// per-instance prover in field-multiplication equivalents: one group
// operation (≈cryptoFieldRatio·f) per proof-vector element plus the
// multiplications that construct the proof vector, against the sum-check
// prover's pure field work. A cheaper Zaatar construction therefore moves
// the breakeven toward Zaatar; TestRecommendBackendPinned holds the picks.
// Programs that do not stratify (nondeterministic advice from comparisons,
// order tests) fall back to the two-way recommendation.
func RecommendBackend(f *field.Field, gs *constraint.GingerSystem, qs *constraint.QuadSystem) string {
	fallback := RecommendProtocol(gs, qs)
	lc, err := constraint.Layer(f, gs)
	if err != nil {
		return fallback
	}
	ug, uz := constraint.ProofVectorSizes(gs, qs)
	var lane float64
	if fallback == pcp.BackendGinger {
		nz := float64(gs.NumUnbound())
		lane = float64(ug)*cryptoFieldRatio + nz*nz
	} else {
		lane = float64(uz)*cryptoFieldRatio + zaatarConstructMults(qs.NumConstraints(), qs.NNZ(f))
	}
	if sumcheckProverMults(lc.Stats()) <= lane {
		return pcp.BackendSumcheck
	}
	return fallback
}

package costmodel

import (
	"math"
	"testing"

	"zaatar/internal/benchprogs"
	"zaatar/internal/compiler"
	"zaatar/internal/constraint"
	"zaatar/internal/field"
	"zaatar/internal/pcp"
)

// TestRecommendProtocolCompiledPrograms: compiler output always keeps K₂
// small, so Zaatar wins.
func TestRecommendProtocolCompiledPrograms(t *testing.T) {
	prog, err := compiler.Compile(field.F128(), `
		const N = 6;
		input x[N] : int16;
		output y : int64;
		y = 0;
		for i = 0 to N-1 { y = y + x[i] * x[i]; }
	`)
	if err != nil {
		t.Fatal(err)
	}
	if got := RecommendProtocol(prog.Ginger, prog.Quad); got != pcp.BackendZaatar {
		t.Errorf("compiled program recommended %v, want zaatar", got)
	}
}

// degenerateSystem builds §4's degenerate case as it stands under native
// quadratic-form rows. Every product of two of the n unbound wires, squares
// included (K₂ = n(n+1)/2), appears in rows that share no factor: a
// round-robin schedule over the odd n, one row per round holding the round's
// (n−1)/2 pairs plus the square of the wire with the bye. ToQuad keeps each
// row's pivot term and mints the rest; wire 1 is every row's pivot, so
// minted = K₂ − n and |u_zaatar| = n + 2·minted + |C| = n² + |C| against
// |u_ginger| = n² + n. One dense row per round is a tie, so the schedule
// runs twice (a double round-robin, the second leg at coefficient 2):
// |C| = 2n and Ginger's encoding is smaller by n.
func degenerateSystem(t *testing.T, f *field.Field, n int) (*constraint.GingerSystem, *constraint.QuadSystem) {
	t.Helper()
	if n%2 == 0 {
		t.Fatalf("round-robin with byes needs an odd n, got %d", n)
	}
	gs := &constraint.GingerSystem{}
	for leg := uint64(1); leg <= 2; leg++ {
		for r := 0; r < n; r++ {
			c := constraint.GingerConstraint{{Coeff: f.FromUint64(leg), A: r + 1, B: r + 1}}
			for k := 1; k <= n/2; k++ {
				c = append(c, constraint.Term{Coeff: f.FromUint64(leg), A: (r+k)%n + 1, B: (r-k+n)%n + 1})
			}
			out := n + len(gs.Cons) + 1
			gs.Out = append(gs.Out, out)
			gs.Cons = append(gs.Cons, append(c, constraint.Term{Coeff: f.Neg(f.One()), A: out}))
		}
	}
	gs.NumVars = n + len(gs.Cons)
	qs := constraint.ToQuad(f, gs)
	if st := gs.Stats(); st.K2 != n*(n+1)/2 || qs.NumVars-gs.NumVars != st.K2-n {
		t.Fatalf("unexpected accounting: K₂ = %d, minted %d", st.K2, qs.NumVars-gs.NumVars)
	}
	return gs, qs
}

func TestRecommendProtocolDegenerate(t *testing.T) {
	f := field.F128()
	gs, qs := degenerateSystem(t, f, 13)
	if got := RecommendProtocol(gs, qs); got != pcp.BackendGinger {
		ug, uz := constraint.ProofVectorSizes(gs, qs)
		t.Errorf("degenerate system recommended %v (|u_g|=%d |u_z|=%d), want ginger", got, ug, uz)
	}
}

// TestRecommendBackendLayered: a pure-arithmetic program stratifies, and
// the crypto-free sum-check prover wins the three-way breakeven.
func TestRecommendBackendLayered(t *testing.T) {
	prog, err := compiler.Compile(field.F128(), `
		input x, y : int32;
		output a : int64;
		a = (x + y) * (x - y) + x * x * y;
	`)
	if err != nil {
		t.Fatal(err)
	}
	got := RecommendBackend(prog.Field, prog.Ginger, prog.Quad)
	if got != pcp.BackendSumcheck {
		t.Errorf("layered program recommended %v, want sumcheck", got)
	}
}

// TestRecommendBackendAdvice: comparisons need nondeterministic advice
// wires, the circuit does not stratify, and the recommendation falls back
// to the two-way commitment-lane choice.
func TestRecommendBackendAdvice(t *testing.T) {
	prog, err := compiler.Compile(field.F128(), `
		input x, y : int32;
		output m : int32;
		m = x;
		if (y > x) { m = y; }
	`)
	if err != nil {
		t.Fatal(err)
	}
	got := RecommendBackend(prog.Field, prog.Ginger, prog.Quad)
	if got != pcp.BackendZaatar {
		t.Errorf("advice-bearing program recommended %v, want zaatar fallback", got)
	}
}

func TestRecommendBackendDegenerateFallsBackToGinger(t *testing.T) {
	f := field.F128()
	gs, qs := degenerateSystem(t, f, 13)
	// The dense constraint has many unknowns, so it does not stratify and
	// the degenerate recommendation survives the generalization.
	if got := RecommendBackend(f, gs, qs); got != pcp.BackendGinger {
		t.Errorf("degenerate system recommended %v, want ginger", got)
	}
}

// TestRecommendBackendPinned holds the three-way pick on the benchmark
// programs, so a change to either lane's prover model (the Zaatar construct
// term became cheaper when H(t) moved to the evaluation basis) shows up
// here as a decision, not as drift: the paper's five computations compare
// and branch, do not stratify and stay on Zaatar; the matrix chain is pure
// arithmetic and goes to sum-check.
func TestRecommendBackendPinned(t *testing.T) {
	want := map[string]string{
		"pam-clustering":             pcp.BackendZaatar,
		"root-finding":               pcp.BackendZaatar,
		"all-pairs-shortest-path":    pcp.BackendZaatar,
		"fannkuch":                   pcp.BackendZaatar,
		"longest-common-subsequence": pcp.BackendZaatar,
	}
	progs := append(benchprogs.Small(), benchprogs.MatMulChain(4, 2), benchprogs.MatMulChain(8, 6))
	for _, b := range progs {
		prog, err := compiler.Compile(b.Field, b.Source)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		pick, ok := want[b.Name]
		if !ok {
			pick = pcp.BackendSumcheck // the two matrix chains
		}
		if got := RecommendBackend(prog.Field, prog.Ginger, prog.Quad); got != pick {
			t.Errorf("%s (%s): recommended %s, want %s", b.Name, b.Label, got, pick)
		}
	}
}

// TestZaatarConstructBelowPaper: the evaluation-basis construct term is
// below Figure 3's 3f·|C|·log²|C| at every benchmark size, and the printed
// formula is still what ProverConstructZaatarPaper returns.
func TestZaatarConstructBelowPaper(t *testing.T) {
	p := OpCosts{F: 1}
	for _, c := range []int{256, 2179, 2636, 98253} {
		q := Quantities{CZaatar: c, NNZ: 3 * c}
		ours, paper := ProverConstructZaatar(p, q), ProverConstructZaatarPaper(p, q)
		l := math.Log2(float64(c))
		if want := 3 * float64(c) * l * l; math.Abs(paper-want) > 1e-6*want {
			t.Errorf("|C|=%d: paper term %g, want 3|C|log²|C| = %g", c, paper, want)
		}
		if ours >= paper {
			t.Errorf("|C|=%d: evaluation-basis term %g not below the paper's %g", c, ours, paper)
		}
	}
	// 2179 constraints: N = 8192, so 3·N·13 + 3·N + 8·2179 + NNZ.
	if got, want := zaatarConstructMults(2179, 3396), float64(3*8192*13+3*8192+8*2179+3396); got != want {
		t.Errorf("zaatarConstructMults(2179, 3396) = %g, want %g", got, want)
	}
}

func TestEstimateSumcheckShape(t *testing.T) {
	prog, err := compiler.Compile(field.F128(), `
		input x : int32;
		output y : int64;
		y = x * x + 3;
	`)
	if err != nil {
		t.Fatal(err)
	}
	lc, err := constraint.Layer(prog.Field, prog.Ginger)
	if err != nil {
		t.Fatal(err)
	}
	p := OpCosts{E: 1e-4, D: 1e-4, H: 1e-5, F: 1e-9, FLazy: 5e-10, FDiv: 1e-8, C: 1e-8}
	est := EstimateSumcheck(p, SumcheckQuantities{Stats: lc.Stats()})
	if est.ProverConstruct <= 0 || est.ProverIssue < 0 || est.VerifierPerInstance <= 0 {
		t.Fatalf("degenerate estimate: %+v", est)
	}
	// The whole point of the lane: per-instance prover cost is orders of
	// magnitude below a single ciphertext operation.
	if est.ProverTotal() >= p.H {
		t.Fatalf("sum-check prover estimate %g not below one group op %g", est.ProverTotal(), p.H)
	}
}

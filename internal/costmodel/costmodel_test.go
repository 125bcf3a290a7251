package costmodel

import (
	"math"
	"testing"

	"zaatar/internal/benchprogs"
	"zaatar/internal/compiler"
	"zaatar/internal/elgamal"
	"zaatar/internal/field"
	"zaatar/internal/pcp"
)

// paperParams approximates the paper's §5.1 microbenchmark table for the
// 128-bit field (seconds).
func paperParams() OpCosts {
	return OpCosts{
		E: 65e-6, D: 170e-6, H: 91e-6,
		F: 210e-9, FLazy: 68e-9, FDiv: 2e-6, C: 160e-9,
	}
}

func quantsFromProgram(t *testing.T, b *benchprogs.Benchmark, localTime float64) Quantities {
	t.Helper()
	prog, err := compiler.Compile(b.Field, b.Source)
	if err != nil {
		t.Fatal(err)
	}
	st := prog.Stats()
	return Quantities{
		T:       localTime,
		ZGinger: st.GingerVars, CGinger: st.GingerConstraints,
		ZZaatar: st.ZaatarVars, CZaatar: st.ZaatarConstraints,
		K: st.K, K2: st.K2, NNZ: prog.Quad.NNZ(prog.Field),
		NX: prog.NumInputs(), NY: prog.NumOutputs(),
		Params: pcp.DefaultParams(),
	}
}

// TestZaatarBeatsGingerOnBenchmarks reproduces the headline comparison:
// under the paper's own cost parameters, the model predicts orders of
// magnitude lower prover cost and break-even batch size for Zaatar on every
// benchmark computation.
func TestZaatarBeatsGingerOnBenchmarks(t *testing.T) {
	p := paperParams()
	for _, b := range benchprogs.Default() {
		q := quantsFromProgram(t, b, 1e-3)
		pg, pz := ProverGinger(p, q), ProverZaatar(p, q)
		if pz >= pg {
			t.Errorf("%s: prover model: zaatar %.3g >= ginger %.3g", b.Name, pz, pg)
		}
		// At these (scaled-down) sizes the gap should already exceed 10×.
		if pg/pz < 10 {
			t.Errorf("%s: prover gap only %.1f×", b.Name, pg/pz)
		}
		bg, bz := BreakevenGinger(p, q), BreakevenZaatar(p, q)
		if !math.IsInf(bg, 1) && !math.IsInf(bz, 1) && bz >= bg {
			t.Errorf("%s: breakeven model: zaatar %g >= ginger %g", b.Name, bz, bg)
		}
	}
}

// TestDegenerateCaseFavorsGinger reproduces §4's caveat at §4's sizes
// (every degree-2 term minted, the bound constraint.ToQuad stays under):
// when K2 approaches its maximum (every pair of variables multiplied — dense
// degree-2 polynomial evaluation), Zaatar's proof vector slightly exceeds
// Ginger's.
func TestDegenerateCaseFavorsGinger(t *testing.T) {
	z := 100
	k2max := z * (z + 1) / 2
	q := Quantities{
		T:       1e-3,
		ZGinger: z, CGinger: z,
		ZZaatar: z + k2max, CZaatar: z + k2max,
		K: 3 * z, K2: k2max,
		NX: 4, NY: 4,
		Params: pcp.DefaultParams(),
	}
	ug, uz := q.UGinger(), q.UZaatar()
	if uz <= ug {
		t.Fatalf("degenerate case: |u_zaatar| = %g should exceed |u_ginger| = %g", uz, ug)
	}
	// §4's bound: |u_zaatar| ≤ |u_ginger|·(1 + 2/(|Z|+1)).
	bound := ug * (1 + 2/float64(z+1))
	if uz > bound+1 {
		t.Fatalf("|u_zaatar| = %g exceeds the §4 worst-case bound %g", uz, bound)
	}
}

// TestModelScaling verifies the asymptotic shapes of Figure 8: doubling the
// constraint count roughly quadruples Ginger's prover cost (quadratic) but
// only slightly more than doubles Zaatar's (n log² n).
func TestModelScaling(t *testing.T) {
	p := paperParams()
	base := Quantities{
		T: 0, ZGinger: 1000, CGinger: 1000, ZZaatar: 1200, CZaatar: 1200,
		K: 3000, K2: 200, NNZ: 4600, NX: 10, NY: 10, Params: pcp.DefaultParams(),
	}
	dbl := base
	dbl.ZGinger, dbl.CGinger = 2000, 2000
	dbl.ZZaatar, dbl.CZaatar = 2400, 2400
	dbl.K, dbl.K2, dbl.NNZ = 6000, 400, 9200

	gRatio := ProverGinger(p, dbl) / ProverGinger(p, base)
	zRatio := ProverZaatar(p, dbl) / ProverZaatar(p, base)
	if gRatio < 3.5 || gRatio > 4.5 {
		t.Errorf("ginger scaling ratio %.2f, want ≈4", gRatio)
	}
	if zRatio < 1.9 || zRatio > 2.6 {
		t.Errorf("zaatar scaling ratio %.2f, want ≈2–2.4", zRatio)
	}
}

func TestBreakeven(t *testing.T) {
	if got := Breakeven(100, 1, 2); got != 100 {
		t.Errorf("Breakeven = %v, want 100", got)
	}
	if got := Breakeven(100, 3, 2); !math.IsInf(got, 1) {
		t.Errorf("Breakeven should be +Inf when verification beats local, got %v", got)
	}
	if got := Breakeven(1000, 0.5, 1); got != 2000 {
		t.Errorf("Breakeven = %v, want 2000", got)
	}
}

func TestCalibrateFieldOnly(t *testing.T) {
	// One calibration times a few microseconds of multiplies, so a single
	// preemption can invert f and f_lazy. Each parameter's minimum over a few
	// calibrations is the machine's cost with that noise taken out.
	var p OpCosts
	for i := 0; i < 5; i++ {
		c := Calibrate(field.F128(), nil, 2000)
		if c.F <= 0 || c.FLazy <= 0 || c.FDiv <= 0 || c.C <= 0 {
			t.Fatalf("calibration returned non-positive field params: %+v", c)
		}
		if c.E != 0 || c.D != 0 || c.H != 0 {
			t.Fatal("crypto params should be zero without a group")
		}
		if i == 0 {
			p = c
			continue
		}
		p.F, p.FLazy, p.FDiv = min(p.F, c.F), min(p.FLazy, c.FLazy), min(p.FDiv, c.FDiv)
	}
	// Lazy reduction must actually be cheaper than a full multiply, and
	// inversion far more expensive.
	if p.FLazy >= p.F {
		t.Errorf("f_lazy = %v not below f = %v", p.FLazy, p.F)
	}
	if p.FDiv < 5*p.F {
		t.Errorf("f_div = %v suspiciously close to f = %v", p.FDiv, p.F)
	}
}

func TestCalibrateWithCrypto(t *testing.T) {
	if testing.Short() {
		t.Skip("1024-bit crypto calibration in -short mode")
	}
	p := Calibrate(field.F128(), elgamal.GroupF128(), 100)
	if p.E <= 0 || p.D <= 0 || p.H <= 0 {
		t.Fatalf("crypto calibration failed: %+v", p)
	}
	// The §5.1 ordering: e, d, h are microseconds-scale, far above f.
	if p.E < 100*p.F {
		t.Errorf("e = %v not far above f = %v", p.E, p.F)
	}
}

package experiments

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"zaatar/internal/pcp"
)

// quickOptions runs everything at small scale without crypto so the whole
// harness is exercised in seconds.
func quickOptions() Options {
	return Options{
		Scale:           ScaleSmall,
		Params:          pcp.TestParams(),
		Crypto:          false,
		Workers:         1,
		Seed:            7,
		CalibrationReps: 100,
		BreakevenScale:  ScaleSmall,
	}
}

func TestRunMicro(t *testing.T) {
	res := RunMicro(quickOptions())
	if len(res) != 2 {
		t.Fatalf("expected both fields, got %d", len(res))
	}
	for _, r := range res {
		if r.Costs.F <= 0 {
			t.Errorf("%s: f not measured", r.Field)
		}
	}
	var buf bytes.Buffer
	RenderMicro(&buf, res)
	if !strings.Contains(buf.String(), "paper 128-bit") {
		t.Error("rendered table missing paper reference row")
	}
}

func TestRunFig4(t *testing.T) {
	o := quickOptions()
	rows, err := RunFig4(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("expected 5 benchmarks, got %d", len(rows))
	}
	ahead := 0
	for _, r := range rows {
		if r.ZaatarMeasured <= 0 {
			t.Errorf("%s: no measurement", r.Name)
		}
		// Deterministic half of the headline: the Ginger model must exceed
		// the Zaatar model at every size.
		if r.GingerEstimated <= r.ZaatarModel {
			t.Errorf("%s: ginger model %v not above zaatar model %v",
				r.Name, r.GingerEstimated, r.ZaatarModel)
		}
		if r.GingerEstimated > r.ZaatarMeasured {
			ahead++
		}
	}
	// Measured half: at the tiniest sizes fixed overheads and CPU noise can
	// bring one benchmark's measured Zaatar time near the Ginger estimate,
	// so require the gap on the clear majority rather than all five.
	if ahead < 4 {
		t.Errorf("ginger estimate exceeded zaatar measured on only %d/5 benchmarks", ahead)
	}
	var buf bytes.Buffer
	RenderFig4(&buf, rows)
	if !strings.Contains(buf.String(), "Figure 4") {
		t.Error("render missing title")
	}
}

func TestRunFig5(t *testing.T) {
	rows, err := RunFig5(quickOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.E2E <= 0 || r.Solve <= 0 || r.ConstructU <= 0 {
			t.Errorf("%s: missing decomposition: %+v", r.Name, r)
		}
		if r.E2E < r.Local {
			t.Errorf("%s: prover cheaper than local execution?!", r.Name)
		}
	}
	var buf bytes.Buffer
	RenderFig5(&buf, rows)
	if !strings.Contains(buf.String(), "construct u") {
		t.Error("render missing column")
	}
}

func TestRunFig6(t *testing.T) {
	rows, err := RunFig6(quickOptions(), 4, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 { // 2 benchmarks × 2 worker counts
		t.Fatalf("expected 4 rows, got %d", len(rows))
	}
	var buf bytes.Buffer
	RenderFig6(&buf, rows, 4)
	if !strings.Contains(buf.String(), "speedup") {
		t.Error("render missing column")
	}
}

func TestRunFig7(t *testing.T) {
	o := quickOptions()
	rows, err := RunFig7(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if math.IsInf(r.BreakevenZaatar, 1) {
			continue // some benchmarks may not break even without crypto context
		}
		if !math.IsInf(r.BreakevenGinger, 1) && r.BreakevenGinger < r.BreakevenZaatar {
			t.Errorf("%s: ginger breakeven %v below zaatar %v", r.Name, r.BreakevenGinger, r.BreakevenZaatar)
		}
	}
	var buf bytes.Buffer
	RenderFig7(&buf, rows)
	if !strings.Contains(buf.String(), "breakeven") {
		t.Error("render missing column")
	}
}

func TestRunFig8(t *testing.T) {
	res, err := RunFig8(quickOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 15 {
		t.Fatalf("expected 15 points, got %d", len(res.Points))
	}
	// Scaling shape at tiny sizes is noisy; only check the relative shape:
	// Ginger's fitted exponent should exceed Zaatar's for the benchmarks
	// with a real size sweep.
	better := 0
	for name, e := range res.Exponents {
		if e[1] > e[0] {
			better++
		}
		_ = name
	}
	if better < 3 {
		t.Errorf("ginger scaled steeper than zaatar for only %d/5 benchmarks", better)
	}
	var buf bytes.Buffer
	RenderFig8(&buf, res)
	if !strings.Contains(buf.String(), "slope") {
		t.Error("render missing slope table")
	}
}

func TestRunFig9(t *testing.T) {
	rows, err := RunFig9(quickOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 15 {
		t.Fatalf("expected 15 rows, got %d", len(rows))
	}
	for _, r := range rows {
		if r.UZ >= r.UG {
			t.Errorf("%s %s: |u_zaatar| = %d not below |u_ginger| = %d", r.Name, r.SizeLabel, r.UZ, r.UG)
		}
		if minted := r.ZZ - r.ZG; minted != r.CZ-r.CG || minted < 0 || minted > r.K2 {
			t.Errorf("%s %s: minted = |Z_z|−|Z_g| = %d, |C_z|−|C_g| = %d, want equal and ≤ K₂ = %d",
				r.Name, r.SizeLabel, minted, r.CZ-r.CG, r.K2)
		}
	}
	var buf bytes.Buffer
	RenderFig9(&buf, rows)
	if !strings.Contains(buf.String(), "|u_zaatar|") {
		t.Error("render missing column")
	}
}

func TestRunModel(t *testing.T) {
	rows, err := RunModel(quickOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.ProverRatio <= 0 {
			t.Errorf("%s: bad ratio", r.Name)
		}
		// Loose envelope: a pure-Go prover against a model calibrated on
		// the same machine should land within roughly an order of
		// magnitude. (The paper's C++ prover achieved 1.05–1.15; at tiny
		// test sizes constant overheads and CPU contention dominate, so
		// the envelope here is deliberately generous — the meaningful
		// check at realistic sizes is done by zaatar-bench -exp model.)
		if r.ProverRatio > 30 || r.ProverRatio < 1.0/30 {
			t.Errorf("%s: measured/model ratio %v outside [1/30, 30]", r.Name, r.ProverRatio)
		}
	}
	var buf bytes.Buffer
	RenderModel(&buf, rows)
	if !strings.Contains(buf.String(), "ratio") {
		t.Error("render missing column")
	}
}

func TestRunCache(t *testing.T) {
	r, err := RunCache(quickOptions(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.CacheMisses != 1 {
		t.Errorf("cache misses = %d, want 1 (one compile for the whole experiment)", r.CacheMisses)
	}
	if r.CacheHits < 5 {
		t.Errorf("cache hits = %d, want ≥ 5 (every session after the first)", r.CacheHits)
	}
	if r.ColdSetupMs <= 0 || r.WarmSetupMs <= 0 {
		t.Errorf("setup walls not measured: cold %v warm %v", r.ColdSetupMs, r.WarmSetupMs)
	}
	if len(r.Curve) != 4 {
		t.Fatalf("curve has %d points, want 4", len(r.Curve))
	}
	for _, pt := range r.Curve {
		if pt.AmortizedMs <= 0 || pt.FirstBatchMs <= 0 {
			t.Errorf("batches=%d: missing walls: %+v", pt.Batches, pt)
		}
		if pt.Batches > 1 && pt.MeanLaterMs <= 0 {
			t.Errorf("batches=%d: later-batch mean not measured", pt.Batches)
		}
	}
	var buf bytes.Buffer
	RenderCache(&buf, r)
	if !strings.Contains(buf.String(), "batches/conn") || !strings.Contains(buf.String(), "LRU hit") {
		t.Error("render missing amortization table")
	}
}

func TestRunScaling(t *testing.T) {
	if _, err := RunScaling(quickOptions(), []int{1, 2}); err == nil {
		t.Fatal("scaling accepted crypto=false")
	}
	o := quickOptions()
	o.Crypto = true
	r, err := RunScaling(o, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if r.N != scalingN(ScaleSmall) || len(r.Points) != 2 {
		t.Fatalf("unexpected shape: n=%d points=%d", r.N, len(r.Points))
	}
	for i, pt := range r.Points {
		if pt.CommitMs <= 0 || pt.CommitsPerSec <= 0 || pt.SpeedupX <= 0 {
			t.Errorf("point %d not measured: %+v", i, pt)
		}
	}
	if r.Points[0].Workers != 1 || r.Points[0].SpeedupX != 1 {
		t.Errorf("first point must be the 1-worker reference: %+v", r.Points[0])
	}
	// Worker lists that don't lead with 1 get the reference prepended, so
	// SpeedupX stays anchored to serial commits rather than the first entry.
	r2, err := RunScaling(o, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	if len(r2.Points) != 2 || r2.Points[0].Workers != 1 || r2.Points[1].Workers != 2 {
		t.Fatalf("1-worker reference not prepended: %+v", r2.Points)
	}
	if r2.Points[0].SpeedupX != 1 {
		t.Errorf("reference point speedup = %v, want 1", r2.Points[0].SpeedupX)
	}
	var buf bytes.Buffer
	RenderScaling(&buf, r)
	if !strings.Contains(buf.String(), "commits/s") {
		t.Error("render missing throughput column")
	}
}

func TestScales(t *testing.T) {
	for _, s := range []Scale{ScaleSmall, ScaleDefault, ScalePaper} {
		if got := len(Benchmarks(s)); got != 5 {
			t.Errorf("%s: %d benchmarks", s, got)
		}
		sizes := SizesFor(s)
		if len(sizes) != 5 {
			t.Errorf("%s: %d size families", s, len(sizes))
		}
		for name, bs := range sizes {
			if len(bs) != 3 {
				t.Errorf("%s/%s: %d sizes, want 3", s, name, len(bs))
			}
		}
	}
}

func TestRunBackend(t *testing.T) {
	o := quickOptions()
	o.Crypto = true // the gap only means something against the commitment lane
	r, err := RunBackend(o, 2)
	if err != nil {
		t.Fatal(err)
	}
	if r.Recommended != pcp.BackendSumcheck {
		t.Errorf("cost model recommends %q for the layered chain, want sumcheck", r.Recommended)
	}
	if len(r.Lanes) != 2 || r.Lanes[0].Backend != pcp.BackendZaatar || r.Lanes[1].Backend != pcp.BackendSumcheck {
		t.Fatalf("lanes = %+v, want [zaatar, sumcheck]", r.Lanes)
	}
	if r.ProverSpeedup <= 1 {
		t.Errorf("prover speedup %.2f, want > 1 (sum-check lane pays no crypto)", r.ProverSpeedup)
	}
	var buf bytes.Buffer
	RenderBackend(&buf, r)
	if !strings.Contains(buf.String(), "cheaper per instance") {
		t.Error("render missing headline ratio")
	}
}

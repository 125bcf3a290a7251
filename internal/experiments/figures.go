package experiments

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"

	"zaatar/internal/benchprogs"
	"zaatar/internal/compiler"
	"zaatar/internal/costmodel"
	"zaatar/internal/elgamal"
	"zaatar/internal/field"
	"zaatar/internal/pcp"
	"zaatar/internal/vc"
)

// MicroResult is the §5.1 microbenchmark table for one field.
type MicroResult struct {
	Field string
	Costs costmodel.OpCosts
}

// RunMicro measures the §5.1 operation costs for both production fields.
func RunMicro(o Options) []MicroResult {
	var out []MicroResult
	for _, f := range []*field.Field{field.F128(), field.F220()} {
		var g *elgamal.Group
		if o.Crypto {
			g = elgamal.GroupFor(f)
		}
		reps := o.CalibrationReps
		if reps == 0 {
			reps = 1000
		}
		out = append(out, MicroResult{Field: f.Name(), Costs: costmodel.Calibrate(f, g, reps)})
	}
	return out
}

// RenderMicro prints the microbenchmark table next to the paper's values.
func RenderMicro(w io.Writer, res []MicroResult) {
	fmt.Fprintln(w, "§5.1 microbenchmarks (this machine vs. paper's 2.53 GHz Xeon E5540):")
	t := newTable("field", "e", "d", "h", "f_lazy", "f", "f_div", "c")
	for _, r := range res {
		c := r.Costs
		t.add(r.Field, fmtDur(c.E), fmtDur(c.D), fmtDur(c.H), fmtDur(c.FLazy), fmtDur(c.F), fmtDur(c.FDiv), fmtDur(c.C))
	}
	t.add("paper 128-bit", "65 µs", "170 µs", "91 µs", "68 ns", "210 ns", "2 µs", "160 ns")
	t.add("paper 220-bit", "88 µs", "170 µs", "130 µs", "90 ns", "320 ns", "3 µs", "260 ns")
	t.render(w)
}

// Fig4Row is one benchmark's per-instance prover comparison.
type Fig4Row struct {
	Name            string
	ZaatarMeasured  float64 // seconds, measured
	ZaatarModel     float64 // seconds, Figure 3 model
	GingerEstimated float64 // seconds, Figure 3 model (paper's own method)
	Local           float64 // seconds, bignum local execution (measureLocal)
	OrdersOfMag     float64 // log10(ginger/zaatar)
}

// RunFig4 measures Zaatar's per-instance prover time and estimates
// Ginger's, per benchmark.
func RunFig4(o Options) ([]Fig4Row, error) {
	var rows []Fig4Row
	for _, b := range Benchmarks(o.Scale) {
		row, err := proverRow(b, o)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", b.Name, err)
		}
		rows = append(rows, *row)
	}
	return rows, nil
}

func proverRow(b *benchprogs.Benchmark, o Options) (*Fig4Row, error) {
	prog, err := compileBench(b)
	if err != nil {
		return nil, err
	}
	local := measureLocal(b, prog, o.Seed)
	rng := rand.New(rand.NewSource(o.Seed))
	res, err := runZaatarBatch(prog, b, o, rng, 2)
	if err != nil {
		return nil, err
	}
	var sum float64
	for _, pt := range res.ProverTimes {
		sum += pt.E2E().Seconds()
	}
	measured := sum / float64(len(res.ProverTimes))

	p := o.calibrated(b)
	q := quantities(prog, local, o.Params)
	return &Fig4Row{
		Name:            b.Label,
		ZaatarMeasured:  measured,
		ZaatarModel:     costmodel.ProverZaatar(p, q),
		GingerEstimated: costmodel.ProverGinger(p, q),
		Local:           local,
		OrdersOfMag:     math.Log10(costmodel.ProverGinger(p, q) / measured),
	}, nil
}

// RenderFig4 prints the Figure 4 comparison.
func RenderFig4(w io.Writer, rows []Fig4Row) {
	fmt.Fprintln(w, "Figure 4: per-instance prover running time, Zaatar (measured) vs Ginger (estimated):")
	t := newTable("computation", "Zaatar (measured)", "Zaatar (model)", "Ginger (estimated)", "Ginger/Zaatar", "orders of magnitude")
	for _, r := range rows {
		ratio := r.GingerEstimated / r.ZaatarMeasured
		t.add(r.Name, fmtDur(r.ZaatarMeasured), fmtDur(r.ZaatarModel), fmtDur(r.GingerEstimated),
			fmtCount(ratio), fmt.Sprintf("%.1f", r.OrdersOfMag))
	}
	t.render(w)
}

// Fig5Row decomposes the Zaatar prover's per-instance cost.
type Fig5Row struct {
	Name                              string
	Local                             float64
	Solve, ConstructU, Crypto, Answer float64
	E2E                               float64
}

// RunFig5 reproduces the Figure 5 decomposition.
func RunFig5(o Options) ([]Fig5Row, error) {
	var rows []Fig5Row
	for _, b := range Benchmarks(o.Scale) {
		prog, err := compileBench(b)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", b.Name, err)
		}
		local := measureLocal(b, prog, o.Seed)
		rng := rand.New(rand.NewSource(o.Seed))
		res, err := runZaatarBatch(prog, b, o, rng, 2)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", b.Name, err)
		}
		var solve, cons, crypto, answer float64
		for _, pt := range res.ProverTimes {
			solve += pt.Solve.Seconds()
			cons += pt.ConstructU.Seconds()
			crypto += pt.Crypto.Seconds()
			answer += pt.Answer.Seconds()
		}
		n := float64(len(res.ProverTimes))
		rows = append(rows, Fig5Row{
			Name:  b.Label,
			Local: local,
			Solve: solve / n, ConstructU: cons / n, Crypto: crypto / n, Answer: answer / n,
			E2E: (solve + cons + crypto + answer) / n,
		})
	}
	return rows, nil
}

// RenderFig5 prints the decomposition table.
func RenderFig5(w io.Writer, rows []Fig5Row) {
	fmt.Fprintln(w, "Figure 5: per-instance cost of the Zaatar prover vs local computation:")
	t := newTable("computation", "local", "solve constraints", "construct u", "crypto ops", "answer queries", "e2e CPU time")
	for _, r := range rows {
		t.add(r.Name, fmtDur(r.Local), fmtDur(r.Solve), fmtDur(r.ConstructU), fmtDur(r.Crypto), fmtDur(r.Answer), fmtDur(r.E2E))
	}
	t.render(w)
}

// Fig6Row is one worker-count configuration.
type Fig6Row struct {
	Name      string
	Workers   int
	BatchWall float64
	Speedup   float64
}

// RunFig6 measures prover speedup from parallelizing over a batch.
func RunFig6(o Options, beta int, workerCounts []int) ([]Fig6Row, error) {
	var rows []Fig6Row
	benches := []*benchprogs.Benchmark{}
	switch o.Scale {
	case ScalePaper:
		benches = append(benches, benchprogs.PAM(10, 128, 1), benchprogs.FloydWarshall(15))
	case ScaleSmall:
		benches = append(benches, benchprogs.PAM(4, 4, 1), benchprogs.FloydWarshall(4))
	default:
		benches = append(benches, benchprogs.PAM(6, 16, 1), benchprogs.FloydWarshall(8))
	}
	for _, b := range benches {
		prog, err := compileBench(b)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", b.Name, err)
		}
		var base float64
		for _, workers := range workerCounts {
			oo := o
			oo.Workers = workers
			rng := rand.New(rand.NewSource(o.Seed))
			res, err := runZaatarBatch(prog, b, oo, rng, beta)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", b.Name, err)
			}
			wall := res.Metrics.ProverWall.Seconds()
			if workers == workerCounts[0] {
				base = wall
			}
			rows = append(rows, Fig6Row{Name: b.Label, Workers: workers, BatchWall: wall, Speedup: base / wall})
		}
	}
	return rows, nil
}

// RenderFig6 prints the speedup table.
func RenderFig6(w io.Writer, rows []Fig6Row, beta int) {
	fmt.Fprintf(w, "Figure 6: prover speedup from parallelizing over a batch (β=%d; worker pool stands in for the paper's CPUs+GPUs):\n", beta)
	fmt.Fprintf(w, "(this machine exposes %d CPU core(s); speedups are bounded by that)\n", runtime.NumCPU())
	t := newTable("computation", "workers", "batch wall time", "speedup")
	for _, r := range rows {
		t.add(r.Name, fmt.Sprintf("%d", r.Workers), fmtDur(r.BatchWall), fmt.Sprintf("%.2f×", r.Speedup))
	}
	t.render(w)
}

// Fig7Row compares break-even batch sizes.
type Fig7Row struct {
	Name             string
	LocalPaperScale  float64
	BreakevenZaatar  float64
	BreakevenGinger  float64
	OrdersOfMag      float64
	MeasuredVSetup   float64 // measured verifier setup at o.Scale (context)
	MeasuredVPerInst float64
}

// RunFig7 computes break-even batch sizes at the paper's input sizes from
// the calibrated cost model (the paper's own method for Ginger; for Zaatar
// the model is validated against measurements elsewhere in the harness),
// plus measured verifier costs at the current scale for context.
func RunFig7(o Options) ([]Fig7Row, error) {
	var rows []Fig7Row
	bs := o.BreakevenScale
	if bs == "" {
		bs = ScalePaper
	}
	paper := Benchmarks(bs)
	scaled := Benchmarks(o.Scale)
	for i, b := range paper {
		progPaper, err := compileBench(b)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", b.Name, err)
		}
		local := measureLocal(b, progPaper, o.Seed)
		p := o.calibrated(b)
		// Break-even sizes are modeled at the paper's production soundness
		// parameters regardless of the measured runs' quick settings.
		q := quantities(progPaper, local, pcp.DefaultParams())
		bz := costmodel.BreakevenZaatar(p, q)
		bg := costmodel.BreakevenGinger(p, q)

		// Measured verifier costs at the current scale.
		progScaled, err := compileBench(scaled[i])
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(o.Seed))
		res, err := runZaatarBatch(progScaled, scaled[i], o, rng, 2)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig7Row{
			Name:            b.Label,
			LocalPaperScale: local,
			BreakevenZaatar: bz,
			BreakevenGinger: bg,
			OrdersOfMag:     math.Log10(bg / bz),
			MeasuredVSetup:  res.Metrics.Setup.Seconds(),
			MeasuredVPerInst: res.Metrics.VerifyTotal.Seconds() /
				float64(len(res.ProverTimes)),
		})
	}
	return rows, nil
}

// RenderFig7 prints the break-even comparison.
func RenderFig7(w io.Writer, rows []Fig7Row) {
	fmt.Fprintln(w, "Figure 7: break-even batch sizes at the paper's input sizes (cost model with calibrated parameters):")
	t := newTable("computation", "local (bignum)", "Zaatar breakeven", "Ginger breakeven", "orders of magnitude")
	for _, r := range rows {
		t.add(r.Name, fmtDur(r.LocalPaperScale), fmtCount(r.BreakevenZaatar), fmtCount(r.BreakevenGinger),
			fmt.Sprintf("%.1f", r.OrdersOfMag))
	}
	t.render(w)
}

// Fig8Point is one (benchmark, size) measurement.
type Fig8Point struct {
	Name        string
	SizeLabel   string
	Constraints int
	Zaatar      float64 // measured prover seconds
	Ginger      float64 // measured if feasible, else model estimate
	GingerIsEst bool
}

// Fig8Result groups the scaling points with fitted exponents.
type Fig8Result struct {
	Points []Fig8Point
	// Exponents maps benchmark name to the fitted log-log slope of prover
	// time vs constraint count for (zaatar, ginger).
	Exponents map[string][2]float64
}

// RunFig8 measures prover scaling across three input sizes per benchmark.
func RunFig8(o Options) (*Fig8Result, error) {
	out := &Fig8Result{Exponents: map[string][2]float64{}}
	order := []string{"pam-clustering", "root-finding", "all-pairs-shortest-path", "fannkuch", "longest-common-subsequence"}
	sizes := SizesFor(o.Scale)
	for _, name := range order {
		var logsC, logsZ, logsG []float64
		for si, b := range sizes[name] {
			prog, err := compileBench(b)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", b.Name, err)
			}
			rng := rand.New(rand.NewSource(o.Seed))
			res, err := runZaatarBatch(prog, b, o, rng, 1)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", b.Name, err)
			}
			zSec := res.ProverTimes[0].E2E().Seconds()

			gSec, isEst, err := gingerProverTime(prog, b, o, rng)
			if err != nil {
				return nil, fmt.Errorf("%s ginger: %w", b.Name, err)
			}
			nc := prog.Quad.NumConstraints()
			out.Points = append(out.Points, Fig8Point{
				Name: b.Label, SizeLabel: sizeLabel(b), Constraints: nc,
				Zaatar: zSec, Ginger: gSec, GingerIsEst: isEst,
			})
			logsC = append(logsC, math.Log(float64(nc)))
			logsZ = append(logsZ, math.Log(zSec))
			logsG = append(logsG, math.Log(gSec))
			_ = si
		}
		out.Exponents[name] = [2]float64{slope(logsC, logsZ), slope(logsC, logsG)}
	}
	return out, nil
}

func sizeLabel(b *benchprogs.Benchmark) string {
	return fmt.Sprintf("m=%d", b.Params["m"])
}

// slope fits a least-squares line to (x, y).
func slope(x, y []float64) float64 {
	n := float64(len(x))
	var sx, sy, sxx, sxy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
		sxx += x[i] * x[i]
		sxy += x[i] * y[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return math.NaN()
	}
	return (n*sxy - sx*sy) / den
}

// gingerProverTime measures the Ginger prover when the quadratic proof fits
// comfortably in memory and falls back to the Figure 3 estimate otherwise —
// the paper's own approach (§5.1).
func gingerProverTime(prog *compiler.Program, b *benchprogs.Benchmark, o Options, rng *rand.Rand) (float64, bool, error) {
	nz := prog.Ginger.NumUnbound()
	p := o.Params
	queryVecs := p.Rho * (3*p.RhoLin + 2)
	memBytes := float64(nz) * float64(nz) * float64(queryVecs+2) * 32
	if nz <= pcp.MaxGingerProofVars && memBytes < 3e8 {
		res, err := vc.RunBatch(context.Background(), prog, o.vcConfig(pcp.BackendGinger), genBatch(b, rng, 1))
		if err != nil {
			return 0, false, err
		}
		if !res.AllAccepted() {
			return 0, false, fmt.Errorf("ginger run rejected: %v", res.Reasons)
		}
		return res.ProverTimes[0].E2E().Seconds(), false, nil
	}
	local := measureLocal(b, prog, o.Seed)
	return costmodel.ProverGinger(o.calibrated(b), quantities(prog, local, o.Params)), true, nil
}

// RenderFig8 prints the scaling table and fitted exponents.
func RenderFig8(w io.Writer, res *Fig8Result) {
	fmt.Fprintln(w, "Figure 8: prover running time vs input size (Zaatar measured; Ginger measured where the |Z|² proof fits, estimated otherwise):")
	t := newTable("computation", "size", "|C_zaatar|", "Zaatar prover", "Ginger prover", "ginger est?")
	for _, pt := range res.Points {
		est := ""
		if pt.GingerIsEst {
			est = "model"
		}
		t.add(pt.Name, pt.SizeLabel, fmt.Sprintf("%d", pt.Constraints), fmtDur(pt.Zaatar), fmtDur(pt.Ginger), est)
	}
	t.render(w)
	fmt.Fprintln(w, "\nfitted log-log slope of prover time vs |C| (1 ≈ linear, 2 ≈ quadratic):")
	t2 := newTable("computation", "Zaatar slope", "Ginger slope")
	for name, e := range res.Exponents {
		t2.add(name, fmt.Sprintf("%.2f", e[0]), fmt.Sprintf("%.2f", e[1]))
	}
	t2.render(w)
}

// Fig9Row is one benchmark/size encoding row.
type Fig9Row struct {
	Name      string
	SizeLabel string
	OClass    string
	ZG, ZZ    int
	CG, CZ    int
	K, K2     int
	UG, UZ    int
}

// RunFig9 tabulates the computation and proof encodings of Figure 9.
func RunFig9(o Options) ([]Fig9Row, error) {
	var rows []Fig9Row
	order := []string{"pam-clustering", "root-finding", "all-pairs-shortest-path", "fannkuch", "longest-common-subsequence"}
	sizes := SizesFor(o.Scale)
	for _, name := range order {
		for _, b := range sizes[name] {
			prog, err := compileBench(b)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", b.Name, err)
			}
			st := prog.Stats()
			rows = append(rows, Fig9Row{
				Name: b.Label, SizeLabel: sizeLabel(b), OClass: b.OClass,
				ZG: st.GingerVars, ZZ: st.ZaatarVars,
				CG: st.GingerConstraints, CZ: st.ZaatarConstraints,
				K: st.K, K2: st.K2,
				UG: st.UGinger, UZ: st.UZaatar,
			})
		}
	}
	return rows, nil
}

// RenderFig9 prints the encoding table, with §4's bound on the Zaatar sizes
// (|Z_g|+K2, |C_g|+K2: every degree-2 term minted) beside the sizes ToQuad
// measured.
func RenderFig9(w io.Writer, rows []Fig9Row) {
	fmt.Fprintln(w, "Figure 9: computation and proof encodings (|Z| variables, |C| constraints, |u| proof vector; §4 bound = Ginger + K2):")
	t := newTable("computation", "size", "O(·)", "|Z_g|", "|Z_z|", "§4 bound", "|C_g|", "|C_z|", "§4 bound", "K", "K2", "|u_ginger|", "|u_zaatar|")
	for _, r := range rows {
		t.add(r.Name, r.SizeLabel, r.OClass,
			fmt.Sprintf("%d", r.ZG), fmt.Sprintf("%d", r.ZZ), fmt.Sprintf("%d", r.ZG+r.K2),
			fmt.Sprintf("%d", r.CG), fmt.Sprintf("%d", r.CZ), fmt.Sprintf("%d", r.CG+r.K2),
			fmt.Sprintf("%d", r.K), fmt.Sprintf("%d", r.K2),
			fmt.Sprintf("%d", r.UG), fmt.Sprintf("%d", r.UZ))
	}
	t.render(w)
}

// ModelRow validates the Figure 3 cost model against measurements.
type ModelRow struct {
	Name              string
	ProverMeasured    float64
	ProverModel       float64 // with this code base's evaluation-basis construct term
	ProverModelPaper  float64 // Figure 3 as printed: 3f·|C|·log²|C| to construct
	ProverRatio       float64 // measured / model (the paper saw 1.05–1.15)
	VerifierSetupMeas float64
	VerifierSetupModl float64
	VerifierRatio     float64
}

// RunModel compares measured Zaatar costs to the Figure 3 predictions.
func RunModel(o Options) ([]ModelRow, error) {
	var rows []ModelRow
	for _, b := range Benchmarks(o.Scale) {
		prog, err := compileBench(b)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", b.Name, err)
		}
		rng := rand.New(rand.NewSource(o.Seed))
		res, err := runZaatarBatch(prog, b, o, rng, 2)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", b.Name, err)
		}
		var e2e float64
		for _, pt := range res.ProverTimes {
			e2e += pt.E2E().Seconds()
		}
		e2e /= float64(len(res.ProverTimes))

		local := measureLocal(b, prog, o.Seed)
		p := o.calibrated(b)
		q := quantities(prog, local, o.Params)
		pm := costmodel.ProverZaatar(p, q)
		vm := costmodel.VerifierSetupZaatar(p, q)
		rows = append(rows, ModelRow{
			Name:              b.Label,
			ProverMeasured:    e2e,
			ProverModel:       pm,
			ProverModelPaper:  costmodel.ProverZaatarPaper(p, q),
			ProverRatio:       e2e / pm,
			VerifierSetupMeas: res.Metrics.Setup.Seconds(),
			VerifierSetupModl: vm,
			VerifierRatio:     res.Metrics.Setup.Seconds() / vm,
		})
	}
	return rows, nil
}

// RenderModel prints the validation table.
func RenderModel(w io.Writer, rows []ModelRow) {
	fmt.Fprintln(w, "Figure 3 cost model vs measurements (the paper reports measured/model of 1.05–1.15 for its C++ prover):")
	t := newTable("computation", "prover measured", "prover model", "ratio", "Fig. 3 as printed", "V setup measured", "V setup model", "ratio")
	for _, r := range rows {
		t.add(r.Name, fmtDur(r.ProverMeasured), fmtDur(r.ProverModel), fmt.Sprintf("%.2f", r.ProverRatio), fmtDur(r.ProverModelPaper),
			fmtDur(r.VerifierSetupMeas), fmtDur(r.VerifierSetupModl), fmt.Sprintf("%.2f", r.VerifierRatio))
	}
	t.render(w)
}

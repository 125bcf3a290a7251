// Package experiments regenerates every table and figure of the paper's
// evaluation (§5): the §5.1 microbenchmark table, the Figure 3 cost-model
// validation, and Figures 4–9. cmd/zaatar-bench is a thin CLI over this
// package.
//
// Method (mirroring §5.1):
//
//   - Zaatar numbers are measured by running the real protocol;
//   - Ginger numbers are measured where the quadratic proof fits in memory
//     and otherwise estimated from the Figure 3 cost model calibrated with
//     measured microbenchmarks — exactly the paper's own procedure ("we use
//     estimates, rather than empirics, because the computations would be
//     too expensive under Ginger");
//   - absolute times are machine-specific; the reproduction targets are the
//     shapes: who wins, by how many orders of magnitude, and the linear vs
//     quadratic scaling.
package experiments

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"time"

	"zaatar/internal/benchprogs"
	"zaatar/internal/compiler"
	"zaatar/internal/costmodel"
	"zaatar/internal/elgamal"
	"zaatar/internal/pcp"
	"zaatar/internal/vc"
)

// Scale selects instance sizes.
type Scale string

const (
	// ScaleSmall finishes in seconds; used by tests.
	ScaleSmall Scale = "small"
	// ScaleDefault is the harness default: minutes with crypto enabled.
	ScaleDefault Scale = "default"
	// ScalePaper matches the paper's §5.2 input sizes. Prover runs at this
	// scale take a long time (the paper's own C++ prover took minutes per
	// instance on a 2009 Xeon).
	ScalePaper Scale = "paper"
)

// Options configures a harness run.
type Options struct {
	Scale  Scale
	Params pcp.Params
	// Crypto enables the ElGamal commitment (slower, complete protocol).
	Crypto bool
	// Workers for the prover pool in measured runs.
	Workers int
	// Seed makes runs reproducible.
	Seed int64
	// CalibrationReps for the microbenchmark parameters.
	CalibrationReps int
	// BreakevenScale is the scale at which Figure 7's break-even batch
	// sizes are modeled; empty means ScalePaper (the paper's sizes).
	BreakevenScale Scale
}

// DefaultOptions returns the harness defaults: default scale, the paper's
// PCP parameters, crypto on.
func DefaultOptions() Options {
	return Options{
		Scale:           ScaleDefault,
		Params:          pcp.DefaultParams(),
		Crypto:          true,
		Workers:         1,
		Seed:            1,
		CalibrationReps: 1000,
		BreakevenScale:  ScalePaper,
	}
}

// Benchmarks returns the five §5 computations at the given scale.
func Benchmarks(s Scale) []*benchprogs.Benchmark {
	switch s {
	case ScaleSmall:
		return benchprogs.Small()
	case ScalePaper:
		return []*benchprogs.Benchmark{
			benchprogs.PAM(20, 128, 1),
			benchprogs.Bisection(256, 8),
			benchprogs.FloydWarshall(25),
			benchprogs.Fannkuch(100, 13, 12),
			benchprogs.LCS(300),
		}
	default:
		return benchprogs.Default()
	}
}

// SizesFor returns the three input sizes per benchmark used by Figure 8
// ("we double the input size twice"), scaled down from the paper's
// m={5,10,20} / {64,128,256} / {5,10,20} / {25,50,100} / {75,150,300}.
func SizesFor(s Scale) map[string][]*benchprogs.Benchmark {
	switch s {
	case ScalePaper:
		return map[string][]*benchprogs.Benchmark{
			"pam-clustering":             {benchprogs.PAM(5, 128, 1), benchprogs.PAM(10, 128, 1), benchprogs.PAM(20, 128, 1)},
			"root-finding":               {benchprogs.Bisection(64, 8), benchprogs.Bisection(128, 8), benchprogs.Bisection(256, 8)},
			"all-pairs-shortest-path":    {benchprogs.FloydWarshall(5), benchprogs.FloydWarshall(10), benchprogs.FloydWarshall(20)},
			"fannkuch":                   {benchprogs.Fannkuch(25, 13, 12), benchprogs.Fannkuch(50, 13, 12), benchprogs.Fannkuch(100, 13, 12)},
			"longest-common-subsequence": {benchprogs.LCS(75), benchprogs.LCS(150), benchprogs.LCS(300)},
		}
	case ScaleSmall:
		return map[string][]*benchprogs.Benchmark{
			"pam-clustering":             {benchprogs.PAM(3, 4, 1), benchprogs.PAM(4, 4, 1), benchprogs.PAM(6, 4, 1)},
			"root-finding":               {benchprogs.Bisection(2, 6), benchprogs.Bisection(4, 6), benchprogs.Bisection(8, 6)},
			"all-pairs-shortest-path":    {benchprogs.FloydWarshall(3), benchprogs.FloydWarshall(4), benchprogs.FloydWarshall(6)},
			"fannkuch":                   {benchprogs.Fannkuch(1, 5, 8), benchprogs.Fannkuch(2, 5, 8), benchprogs.Fannkuch(3, 5, 8)},
			"longest-common-subsequence": {benchprogs.LCS(4), benchprogs.LCS(6), benchprogs.LCS(10)},
		}
	default:
		return map[string][]*benchprogs.Benchmark{
			"pam-clustering":             {benchprogs.PAM(4, 16, 1), benchprogs.PAM(6, 16, 1), benchprogs.PAM(10, 16, 1)},
			"root-finding":               {benchprogs.Bisection(16, 8), benchprogs.Bisection(32, 8), benchprogs.Bisection(64, 8)},
			"all-pairs-shortest-path":    {benchprogs.FloydWarshall(4), benchprogs.FloydWarshall(6), benchprogs.FloydWarshall(10)},
			"fannkuch":                   {benchprogs.Fannkuch(2, 6, 10), benchprogs.Fannkuch(4, 6, 10), benchprogs.Fannkuch(8, 6, 10)},
			"longest-common-subsequence": {benchprogs.LCS(10), benchprogs.LCS(20), benchprogs.LCS(40)},
		}
	}
}

// compileBench compiles a benchmark's program.
func compileBench(b *benchprogs.Benchmark) (*compiler.Program, error) {
	return compiler.Compile(b.Field, b.Source)
}

// quantities builds the cost-model inputs from a compiled program plus a
// measured local running time.
func quantities(prog *compiler.Program, localSeconds float64, params pcp.Params) costmodel.Quantities {
	st := prog.Stats()
	return costmodel.Quantities{
		T:       localSeconds,
		ZGinger: st.GingerVars, CGinger: st.GingerConstraints,
		ZZaatar: st.ZaatarVars, CZaatar: st.ZaatarConstraints,
		K: st.K, K2: st.K2, NNZ: prog.Quad.NNZ(prog.Field),
		NX: prog.NumInputs(), NY: prog.NumOutputs(),
		Params: params,
	}
}

// measureLocal times local execution of a benchmark (the "local" baseline
// of Figures 5 and 7), returning seconds per instance. Following the paper
// (§5.2, Figure 5: local computation "executed with the GMP library"), the
// baseline executes the computation with bignum arithmetic — here the
// compiled straight-line interpreter over big.Int — rather than raw native
// integers, which would be unfairly fast against a bignum-based verifier.
func measureLocal(b *benchprogs.Benchmark, prog *compiler.Program, seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	in := b.GenInputs(rng)
	reps := 0
	start := time.Now()
	for time.Since(start) < 50*time.Millisecond {
		if _, err := prog.Execute(in); err != nil {
			panic("experiments: local execution failed: " + err.Error())
		}
		reps++
	}
	return time.Since(start).Seconds() / float64(reps)
}

// vcConfig builds the protocol config for measured runs.
func (o Options) vcConfig(protocol vc.Protocol) vc.Config {
	return vc.Config{
		Protocol:     protocol,
		Params:       o.Params,
		NoCommitment: !o.Crypto,
		Workers:      o.Workers,
		Seed:         []byte(fmt.Sprintf("experiments-%d", o.Seed)),
	}
}

// calibrated returns microbenchmark parameters for a benchmark's field,
// including crypto parameters when o.Crypto is set.
func (o Options) calibrated(b *benchprogs.Benchmark) costmodel.OpCosts {
	var g *elgamal.Group
	if o.Crypto {
		g = elgamal.GroupFor(b.Field)
	}
	reps := o.CalibrationReps
	if reps == 0 {
		reps = 1000
	}
	return costmodel.Calibrate(b.Field, g, reps)
}

// fmtDur renders seconds with engineering units.
func fmtDur(s float64) string {
	switch {
	case math.IsInf(s, 1):
		return "∞"
	case s >= 3600:
		return fmt.Sprintf("%.1f h", s/3600)
	case s >= 60:
		return fmt.Sprintf("%.1f min", s/60)
	case s >= 1:
		return fmt.Sprintf("%.2f s", s)
	case s >= 1e-3:
		return fmt.Sprintf("%.2f ms", s*1e3)
	case s >= 1e-6:
		return fmt.Sprintf("%.2f µs", s*1e6)
	default:
		return fmt.Sprintf("%.0f ns", s*1e9)
	}
}

// fmtCount renders large counts compactly.
func fmtCount(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "∞"
	case v >= 1e12:
		return fmt.Sprintf("%.2g", v)
	case v >= 1e6:
		return fmt.Sprintf("%.3g", v)
	default:
		return fmt.Sprintf("%.0f", v)
	}
}

// table is a minimal fixed-width text table writer.
type table struct {
	w      io.Writer
	widths []int
	rows   [][]string
}

func newTable(headers ...string) *table {
	t := &table{widths: make([]int, len(headers))}
	t.add(headers...)
	return t
}

func (t *table) add(cells ...string) {
	for i, c := range cells {
		if i < len(t.widths) && len([]rune(c)) > t.widths[i] {
			t.widths[i] = len([]rune(c))
		}
	}
	t.rows = append(t.rows, cells)
}

func (t *table) render(w io.Writer) {
	for r, row := range t.rows {
		for i, c := range row {
			pad := t.widths[i] - len([]rune(c))
			fmt.Fprint(w, c)
			for p := 0; p < pad+2; p++ {
				fmt.Fprint(w, " ")
			}
		}
		fmt.Fprintln(w)
		if r == 0 {
			total := 0
			for _, wd := range t.widths {
				total += wd + 2
			}
			for p := 0; p < total; p++ {
				fmt.Fprint(w, "-")
			}
			fmt.Fprintln(w)
		}
	}
}

// Command zaatar-bench regenerates the paper's evaluation tables and
// figures (§5.1–§5.3): the microbenchmark table, the Figure 3 cost-model
// validation, and Figures 4–9.
//
// Usage:
//
//	zaatar-bench -exp all                 # everything at the default scale
//	zaatar-bench -exp fig4 -scale small   # quick look at the prover gap
//	zaatar-bench -exp fig8 -nocrypto      # scaling shape without ElGamal
//	zaatar-bench -exp fig6 -beta 16 -workers 1,2,4,8
//
// Two experiments go beyond the paper's figures. -exp backend proves one
// layered matmul-chain batch under the Zaatar and sum-check lanes and
// reports the per-instance prover gap. -exp baseline snapshots what the
// bench-regression gate compares: the §5.1 calibration constants, each §5
// benchmark's phase walls, the phase histograms and the multiexp kernel
// (-json writes it as BENCH_<date>.json).
//
// The gate diffs two such snapshots with per-metric noise thresholds and
// exits nonzero if anything degraded beyond them (the CI mode; see
// docs/PROTOCOL.md §7.1 for reading the report):
//
//	zaatar-bench -compare BENCH_old.json bench-new.json
//	zaatar-bench -threshold 2.0 -compare BENCH_old.json bench-new.json
//
// Scales: small (seconds), default (minutes), paper (the paper's §5.2
// input sizes; hours for the prover, as it was for the authors' C++
// prover).
package main

import (
	"flag"
	"fmt"
	"net/http"
	httppprof "net/http/pprof"
	"os"
	"strconv"
	"strings"

	"zaatar/internal/experiments"
	"zaatar/internal/pcp"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment: micro, model, fig4, fig5, fig6, fig7, fig8, fig9, backend, baseline, all")
		scale   = flag.String("scale", "default", "instance sizes: small, default, paper")
		rhoLin  = flag.Int("rholin", 0, "linearity test iterations (0 = paper's 20)")
		rho     = flag.Int("rho", 0, "PCP repetitions (0 = paper's 8)")
		quick   = flag.Bool("quick", false, "shortcut for -rholin 2 -rho 2 -calreps 200")
		noCrypt = flag.Bool("nocrypto", false, "disable the ElGamal commitment (PCP only)")
		workers = flag.String("workers", "", "comma-separated worker counts for fig6 (default 1,2,4,8)")
		beta    = flag.Int("beta", 8, "batch size for fig6")
		seed    = flag.Int64("seed", 1, "randomness seed for reproducible runs")
		calReps = flag.Int("calreps", 1000, "microbenchmark calibration repetitions")
		jsonOut = flag.String("json", "", "with -exp baseline: also write the machine-readable baseline to this file ('-' for stdout)")
		compare = flag.Bool("compare", false, "compare two baseline snapshots (old.json new.json as positional args) and exit nonzero on regression")
		thresh  = flag.Float64("threshold", 1.0, "with -compare: scale every per-metric noise allowance (e.g. 2.0 for loose CI gating)")
		pprofOn = flag.String("pprof", "", "address to serve net/http/pprof on for the run's lifetime (empty disables)")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatalf("-compare wants exactly two baseline files, got %d args", flag.NArg())
		}
		oldB, err := experiments.LoadBaseline(flag.Arg(0))
		check(err)
		newB, err := experiments.LoadBaseline(flag.Arg(1))
		check(err)
		r := experiments.CompareBaselines(oldB, newB, experiments.CompareOptions{Threshold: *thresh})
		experiments.RenderCompare(os.Stdout, r)
		if r.Regressions > 0 {
			fatalf("%d metric(s) regressed beyond threshold vs %s", r.Regressions, flag.Arg(0))
		}
		return
	}

	if *pprofOn != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", httppprof.Index)
		mux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", httppprof.Trace)
		go func() {
			if err := http.ListenAndServe(*pprofOn, mux); err != nil {
				fmt.Fprintln(os.Stderr, "zaatar-bench: pprof endpoint:", err)
			}
		}()
	}

	o := experiments.DefaultOptions()
	o.Scale = experiments.Scale(*scale)
	o.Crypto = !*noCrypt
	o.Seed = *seed
	o.CalibrationReps = *calReps
	if *quick {
		o.Params = pcp.TestParams()
		o.CalibrationReps = 200
	}
	if *rhoLin > 0 {
		o.Params.RhoLin = *rhoLin
	}
	if *rho > 0 {
		o.Params.Rho = *rho
	}

	workerCounts := []int{1, 2, 4, 8}
	if *workers != "" {
		workerCounts = nil
		for _, s := range strings.Split(*workers, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || n < 1 {
				fatalf("bad -workers value %q", s)
			}
			workerCounts = append(workerCounts, n)
		}
	}

	run := func(name string) {
		switch name {
		case "baseline":
			bo := o
			bo.Workers = workerCounts[0]
			b, err := experiments.RunBaseline(bo, *beta)
			check(err)
			experiments.RenderBaseline(os.Stdout, b)
			if *jsonOut != "" {
				w := os.Stdout
				if *jsonOut != "-" {
					f, err := os.Create(*jsonOut)
					check(err)
					defer f.Close()
					w = f
				}
				check(b.WriteJSON(w))
			}
		case "backend":
			bo := o
			bo.Workers = workerCounts[0]
			r, err := experiments.RunBackend(bo, *beta)
			check(err)
			experiments.RenderBackend(os.Stdout, r)
		case "micro":
			experiments.RenderMicro(os.Stdout, experiments.RunMicro(o))
		case "model":
			rows, err := experiments.RunModel(o)
			check(err)
			experiments.RenderModel(os.Stdout, rows)
		case "fig4":
			rows, err := experiments.RunFig4(o)
			check(err)
			experiments.RenderFig4(os.Stdout, rows)
		case "fig5":
			rows, err := experiments.RunFig5(o)
			check(err)
			experiments.RenderFig5(os.Stdout, rows)
		case "fig6":
			rows, err := experiments.RunFig6(o, *beta, workerCounts)
			check(err)
			experiments.RenderFig6(os.Stdout, rows, *beta)
		case "fig7":
			rows, err := experiments.RunFig7(o)
			check(err)
			experiments.RenderFig7(os.Stdout, rows)
		case "fig8":
			res, err := experiments.RunFig8(o)
			check(err)
			experiments.RenderFig8(os.Stdout, res)
		case "fig9":
			rows, err := experiments.RunFig9(o)
			check(err)
			experiments.RenderFig9(os.Stdout, rows)
		default:
			fatalf("unknown experiment %q", name)
		}
		fmt.Println()
	}

	fmt.Printf("zaatar-bench: scale=%s params=(ρ_lin=%d, ρ=%d) crypto=%v seed=%d\n\n",
		o.Scale, o.Params.RhoLin, o.Params.Rho, o.Crypto, o.Seed)
	if *exp == "all" {
		for _, name := range []string{"micro", "fig9", "fig4", "fig5", "fig6", "fig7", "fig8", "model"} {
			run(name)
		}
		return
	}
	run(*exp)
}

func check(err error) {
	if err != nil {
		fatalf("%v", err)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "zaatar-bench: "+format+"\n", args...)
	os.Exit(1)
}

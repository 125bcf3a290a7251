// Command zaatar-run compiles a mini-SFDL program and drives the full
// verified-computation protocol end to end in one process: the verifier
// outsources each instance to the prover, checks the argument, and prints
// the verified outputs.
//
// Usage:
//
//	zaatar-run -src prog.zr -inputs "10"            # one instance
//	zaatar-run -src prog.zr -inputs "10; 20; 30"    # a batch of three
//	zaatar-run -src prog.zr -inputs "1,2,3" -quick  # reduced PCP repetitions
//
// Inputs are comma-separated integers, one group per instance separated by
// semicolons, in the order the program declares them (arrays flattened
// row-major).
package main

import (
	"context"
	"flag"
	"fmt"
	"math/big"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"zaatar"
	"zaatar/internal/constraint"
	"zaatar/internal/costmodel"
	"zaatar/internal/obs/trace"
	"zaatar/internal/pcp"
)

func main() { os.Exit(run()) }

// run holds main's body so deferred profile writers flush before the
// process exits with a status code.
func run() int {
	var (
		srcPath  = flag.String("src", "", "path to the mini-SFDL source file")
		inputs   = flag.String("inputs", "", "instance inputs: comma-separated ints; ';' separates instances")
		quick    = flag.Bool("quick", false, "use reduced PCP repetitions (2, 2) instead of the paper's (20, 8)")
		f220     = flag.Bool("f220", false, "use the 220-bit field")
		noCrypto = flag.Bool("nocrypto", false, "skip the ElGamal commitment (PCP only)")
		workers  = flag.Int("workers", 1, "prover worker pool size")
		backend  = flag.String("backend", "", "proof backend: auto|zaatar|ginger|sumcheck (empty = zaatar; auto lets the cost model pick; ginger suits small computations only)")
		stats    = flag.Bool("stats", false, "print encoding statistics and timing decomposition")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file on exit")
		traceOut = flag.String("trace", "", "write a Chrome trace-event JSON file (load in Perfetto / chrome://tracing)")
		metrOut  = flag.String("metrics-out", "", "write the run's metrics in Prometheus exposition form to this file on exit ('-' for stdout)")
	)
	flag.Parse()
	if *srcPath == "" || *inputs == "" {
		fmt.Fprintln(os.Stderr, "usage: zaatar-run -src prog.zr -inputs \"1,2,3; 4,5,6\"")
		return 2
	}
	if *cpuProf != "" {
		pf, err := os.Create(*cpuProf)
		check(err)
		check(pprof.StartCPUProfile(pf))
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			pf, err := os.Create(*memProf)
			check(err)
			defer pf.Close()
			runtime.GC()
			check(pprof.WriteHeapProfile(pf))
		}()
	}
	src, err := os.ReadFile(*srcPath)
	check(err)

	// The field option shapes compilation and the run; the rest only the run.
	var copts []zaatar.CompileOption
	var opts []zaatar.RunOption
	if *f220 {
		copts = append(copts, zaatar.WithField220())
		opts = append(opts, zaatar.WithField220())
	}
	if *quick {
		opts = append(opts, zaatar.WithParams(2, 2))
	}
	if *noCrypto {
		opts = append(opts, zaatar.WithoutCommitment())
	}
	if *backend != "" {
		opts = append(opts, zaatar.WithBackend(*backend))
	}
	opts = append(opts, zaatar.WithWorkers(*workers))

	prog, err := zaatar.Compile(string(src), copts...)
	check(err)

	// Resolve the name the run will actually use, for the stats line and
	// the trace summary's cost-model pick.
	backendName := zaatar.BackendZaatar
	if *backend != "" {
		backendName = *backend
		if backendName == zaatar.BackendAuto {
			backendName = zaatar.RecommendBackend(prog)
		}
	}

	batch, err := parseBatch(*inputs, prog.NumInputs())
	check(err)

	// With -trace, every protocol phase, per-instance step, and kernel call
	// of the run records a span; without it tc is nil and the context adds
	// nothing.
	var tc *trace.Ctx
	ctx := context.Background()
	if *traceOut != "" {
		tc = trace.New(trace.NewRecorder(trace.DefaultCapacity), "zaatar-run")
		ctx = trace.NewContext(ctx, tc)
	}
	res, err := zaatar.RunContext(ctx, prog, batch, opts...)
	check(err)
	if *metrOut != "" {
		check(writeMetrics(*metrOut))
	}
	if tc != nil {
		params := zaatar.DefaultParams()
		if *quick {
			params = pcp.Params{RhoLin: 2, Rho: 2}
		}
		check(writeTrace(*traceOut, tc, prog, res, params, backendName))
		fmt.Fprintf(os.Stderr, "zaatar-run: trace written to %s (%d spans, %d dropped)\n",
			*traceOut, tc.Recorder().Len(), tc.Recorder().Dropped())
	}

	for i := range batch {
		status := "ACCEPTED"
		if !res.Accepted[i] {
			status = "REJECTED: " + res.Reasons[i]
		}
		fmt.Printf("instance %d: %s\n", i, status)
		for j, name := range prog.OutputNames {
			fmt.Printf("  %s = %v\n", name, res.Outputs[i][j])
		}
	}
	if *stats {
		st := prog.Stats()
		fmt.Printf("\nbackend: %s\n", backendName)
		fmt.Printf("encoding: |Z_ginger|=%d |C_ginger|=%d |Z_zaatar|=%d |C_zaatar|=%d K=%d K2=%d |u_ginger|=%d |u_zaatar|=%d\n",
			st.GingerVars, st.GingerConstraints, st.ZaatarVars, st.ZaatarConstraints,
			st.K, st.K2, st.UGinger, st.UZaatar)
		m := res.Metrics
		fmt.Printf("verifier: setup %v, verification %v\n", m.Setup, m.VerifyTotal)
		fmt.Printf("pipeline: commit %v, decommit %v, respond %v, respond+verify %v, total %v (%d workers)\n",
			m.Commit, m.Decommit, m.Respond, m.RespondVerify, m.Total, m.Workers)
		for i, pt := range res.ProverTimes {
			fmt.Printf("prover instance %d: solve %v, construct u %v, crypto %v, answer %v (e2e %v)\n",
				i, pt.Solve, pt.ConstructU, pt.Crypto, pt.Answer, pt.E2E())
		}
	}
	if !res.AllAccepted() {
		return 1
	}
	return 0
}

// writeMetrics dumps the default registry — where the run's counters,
// labeled series, and phase histograms accumulated — in Prometheus
// exposition form, for scraping into CI artifacts.
func writeMetrics(path string) error {
	w := os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	return zaatar.Metrics().WritePrometheus(w)
}

// phaseComparison is one row of the trace summary: a measured phase next to
// the cost model's prediction for it (Figure 3, scaled to the batch).
type phaseComparison struct {
	Phase      string  `json:"phase"`
	ObservedMs float64 `json:"observed_ms"`
	ModelMs    float64 `json:"model_ms"`
}

// runSummary is embedded into the trace file under the "zaatarSummary" key.
type runSummary struct {
	Protocol  string            `json:"protocol"`
	Instances int               `json:"instances"`
	Workers   int               `json:"workers"`
	Phases    []phaseComparison `json:"phases"`
	// ModelNote qualifies the predictions: the model is serial CPU cost with
	// field-op parameters calibrated on this machine and crypto parameters
	// (e, d, h) left zero, so commitment-heavy runs will overshoot it.
	ModelNote string `json:"model_note"`
	Dropped   int64  `json:"dropped_spans"`
}

// writeTrace exports the run's spans in Chrome trace-event form, with a
// model-vs-observed per-phase comparison as the summary payload.
func writeTrace(path string, tc *trace.Ctx, prog *zaatar.Program, res *zaatar.Result, params pcp.Params, backend string) error {
	st := prog.Stats()
	q := costmodel.Quantities{
		ZGinger: st.GingerVars, CGinger: st.GingerConstraints,
		ZZaatar: st.ZaatarVars, CZaatar: st.ZaatarConstraints,
		K: st.K, K2: st.K2, NNZ: prog.Quad.NNZ(prog.Field),
		NX: prog.NumInputs(), NY: prog.NumOutputs(),
		Params: params,
	}
	p := costmodel.Calibrate(prog.Field, nil, 200)
	est := costmodel.EstimateZaatar(p, q)
	switch backend {
	case "ginger":
		est = costmodel.EstimateGinger(p, q)
	case "sumcheck":
		// The run already succeeded on this lane, so the circuit layers.
		if lc, err := constraint.Layer(prog.Field, prog.Ginger); err == nil {
			est = costmodel.EstimateSumcheck(p, costmodel.SumcheckQuantities{Stats: lc.Stats()})
		}
	}
	m := res.Metrics
	beta := float64(m.Instances)
	ms := func(s float64) float64 { return s * 1e3 }
	sum := runSummary{
		Protocol:  backend,
		Instances: m.Instances,
		Workers:   m.Workers,
		Phases: []phaseComparison{
			{Phase: "vc.setup", ObservedMs: float64(m.Setup.Microseconds()) / 1e3, ModelMs: ms(est.VerifierSetup)},
			{Phase: "vc.commit", ObservedMs: float64(m.Commit.Microseconds()) / 1e3, ModelMs: ms(beta * est.ProverTotal())},
			{Phase: "vc.decommit", ObservedMs: float64(m.Decommit.Microseconds()) / 1e3, ModelMs: 0},
			{Phase: "vc.respond", ObservedMs: float64(m.Respond.Microseconds()) / 1e3, ModelMs: 0},
			{Phase: "vc.verify", ObservedMs: float64(m.VerifyTotal.Microseconds()) / 1e3, ModelMs: ms(beta * est.VerifierPerInstance)},
		},
		ModelNote: "model is serial CPU seconds from Figure 3 with crypto op costs uncalibrated (e=d=h=0)",
		Dropped:   tc.Recorder().Dropped(),
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := trace.WriteChrome(f, tc.Recorder().Snapshot(), sum); err != nil {
		return err
	}
	return f.Close()
}

func parseBatch(s string, want int) ([][]*big.Int, error) {
	var batch [][]*big.Int
	for _, inst := range strings.Split(s, ";") {
		var in []*big.Int
		for _, tok := range strings.Split(inst, ",") {
			tok = strings.TrimSpace(tok)
			if tok == "" {
				continue
			}
			v, ok := new(big.Int).SetString(tok, 10)
			if !ok {
				return nil, fmt.Errorf("bad input %q", tok)
			}
			in = append(in, v)
		}
		if len(in) != want {
			return nil, fmt.Errorf("instance has %d inputs, program wants %d", len(in), want)
		}
		batch = append(batch, in)
	}
	return batch, nil
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "zaatar-run:", err)
		os.Exit(1)
	}
}

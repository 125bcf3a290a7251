package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"zaatar/internal/costmodel"
	"zaatar/internal/obs"
	"zaatar/internal/pcp"
	"zaatar/internal/vc"
)

// BaselineSchema versions the BENCH_<date>.json layout; bump it when the
// shape changes so downstream comparisons can tell files apart. Schema 2
// added the cache-amortization section (cold vs warm session setup and the
// batches-per-connection curve); schema 3 added the backend-comparison
// section (Zaatar commitment lane vs sum-check transcript lane on the
// layered matmul-chain workload); schema 4 added the commit-throughput
// scaling curve (workers → commits/s); schema 5 added the artifact-store
// section (cold vs disk-warm-restart vs memory-warm session open, and the
// hash-first hello's wire savings); schema 6 added the prover-farm section
// (coordinator overhead vs a single-prover reference, with shard counters).
const BaselineSchema = 6

// Baseline is the machine-readable benchmark snapshot zaatar-bench -json
// emits: per-phase wall times and latency percentiles for each §5
// benchmark, kernel throughputs, and the §5.1 calibration constants. One
// file per machine/date pair, checked into BENCH_<date>.json, gives later
// sessions a regression reference.
type Baseline struct {
	Schema    int    `json:"schema"`
	Date      string `json:"date"`
	GoVersion string `json:"go_version"`
	NumCPU    int    `json:"num_cpu"`
	Scale     string `json:"scale"`
	RhoLin    int    `json:"rholin"`
	Rho       int    `json:"rho"`
	Crypto    bool   `json:"crypto"`
	Workers   int    `json:"workers"`
	Beta      int    `json:"beta"`

	// Calibration holds the §5.1 microbenchmark constants in seconds per
	// operation, calibrated on this machine for the 128-bit field.
	Calibration costmodel.OpCosts `json:"calibration"`

	Benchmarks []BaselineBench `json:"benchmarks"`
	// Phases holds the vc.phase quantiles of the Zaatar batches, keyed
	// vc.<phase> (phaseKeys).
	Phases  map[string]PhaseQuantile `json:"phases"`
	Kernels map[string]KernelStats   `json:"kernels"`

	// Cache is the program-cache / keep-alive amortization experiment
	// (schema ≥ 2): cold vs warm session setup against a transport.Service
	// and the batches-per-connection curve.
	Cache *CacheResult `json:"cache,omitempty"`

	// Backend is the proof-backend comparison (schema ≥ 3): the layered
	// matmul-chain batch proved under the Zaatar and sum-check lanes.
	Backend *BackendResult `json:"backend,omitempty"`

	// Scaling is the commit-throughput curve over kernel worker counts
	// (schema ≥ 4). Interpret it against NumCPU: workers beyond the
	// visible cores measure sharding overhead, not speedup.
	Scaling *ScalingResult `json:"scaling,omitempty"`

	// Store is the artifact-store experiment (schema ≥ 5): session-open
	// latency across the cold / disk-warm-restart / memory-warm tiers and
	// the hash-first hello's wire savings.
	Store *StoreResult `json:"store,omitempty"`

	// Farm is the prover-farm experiment (schema ≥ 6): the same batch
	// through a single prover and a two-worker farm coordinator, isolating
	// the coordinator's overhead on core-starved hosts.
	Farm *FarmResult `json:"farm,omitempty"`
}

// BaselineBench is one benchmark's measured batch.
type BaselineBench struct {
	Name      string  `json:"name"`
	Instances int     `json:"instances"`
	SetupMs   float64 `json:"setup_ms"`
	CommitMs  float64 `json:"commit_ms"`
	RespondMs float64 `json:"respond_ms"`
	VerifyMs  float64 `json:"verify_total_ms"`
	TotalMs   float64 `json:"total_ms"`
	// ProverE2EMs is the mean per-instance prover cost (Figure 5's columns
	// summed).
	ProverE2EMs float64 `json:"prover_e2e_ms"`
}

// PhaseQuantile is the cross-benchmark latency distribution of one protocol
// phase histogram.
type PhaseQuantile struct {
	Count int64   `json:"count"`
	AvgMs float64 `json:"avg_ms"`
	P50Ms float64 `json:"p50_ms"`
	P90Ms float64 `json:"p90_ms"`
	P99Ms float64 `json:"p99_ms"`
}

// KernelStats summarizes one group-arithmetic kernel's registry counters.
type KernelStats struct {
	Calls         int64   `json:"calls"`
	Items         int64   `json:"items"`
	ItemsPerSec   float64 `json:"items_per_sec"`
	AvgCallMs     float64 `json:"avg_call_ms"`
	P90CallMs     float64 `json:"p90_call_ms"`
	TotalSeconds  float64 `json:"total_seconds"`
	ItemsPerCall  float64 `json:"items_per_call"`
	TablesBuilt   int64   `json:"tables_built,omitempty"`
	FixedBaseExps int64   `json:"fixed_base_exps,omitempty"`
}

func msOf(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func quantile(s obs.HistogramSnapshot) PhaseQuantile {
	return PhaseQuantile{
		Count: s.Count,
		AvgMs: msOf(s.Mean()),
		P50Ms: msOf(s.Quantile(0.50)),
		P90Ms: msOf(s.Quantile(0.90)),
		P99Ms: msOf(s.Quantile(0.99)),
	}
}

// RunBaseline measures every benchmark at the configured scale as one
// batched Zaatar run each, collecting per-phase times from the batch
// metrics and phase/kernel distributions from the process-wide registry
// (which the protocol and the elgamal kernels record into).
func RunBaseline(o Options, beta int) (*Baseline, error) {
	if beta < 1 {
		beta = 1
	}
	if o.Workers < 1 {
		o.Workers = 1
	}
	rng := rand.New(rand.NewSource(o.Seed))
	benches := Benchmarks(o.Scale)
	b := &Baseline{
		Schema:    BaselineSchema,
		Date:      time.Now().UTC().Format("2006-01-02"),
		GoVersion: runtime.Version(),
		NumCPU:    runtime.NumCPU(),
		Scale:     string(o.Scale),
		RhoLin:    o.Params.RhoLin,
		Rho:       o.Params.Rho,
		Crypto:    o.Crypto,
		Workers:   o.Workers,
		Beta:      beta,
		Phases:    make(map[string]PhaseQuantile),
		Kernels:   make(map[string]KernelStats),
	}
	b.Calibration = o.calibrated(benches[0])

	for _, bench := range benches {
		prog, err := compileBench(bench)
		if err != nil {
			return nil, err
		}
		res, err := runZaatarBatch(prog, bench, o, rng, beta)
		if err != nil {
			return nil, err
		}
		m := res.Metrics
		var e2e time.Duration
		for _, pt := range res.ProverTimes {
			e2e += pt.E2E()
		}
		b.Benchmarks = append(b.Benchmarks, BaselineBench{
			Name:        bench.Name,
			Instances:   m.Instances,
			SetupMs:     msOf(m.Setup),
			CommitMs:    msOf(m.Commit),
			RespondMs:   msOf(m.Respond),
			VerifyMs:    msOf(m.VerifyTotal),
			TotalMs:     msOf(m.Total),
			ProverE2EMs: msOf(e2e) / float64(m.Instances),
		})
	}

	reg := obs.Default()
	phases := reg.HistogramVec(vc.MetricPhase, vc.LabelPhase, vc.LabelBackend)
	for _, name := range phaseKeys {
		b.Phases[name] = quantile(phases.With(strings.TrimPrefix(name, "vc."), pcp.BackendZaatar).Snapshot())
	}
	if me := reg.Histogram("elgamal.multiexp").Snapshot(); me.Count > 0 {
		items := reg.Counter("elgamal.multiexp.bases").Value()
		ks := KernelStats{
			Calls:         me.Count,
			Items:         items,
			AvgCallMs:     msOf(me.Mean()),
			P90CallMs:     msOf(me.Quantile(0.90)),
			TotalSeconds:  me.Sum.Seconds(),
			ItemsPerCall:  float64(items) / float64(me.Count),
			TablesBuilt:   reg.Counter("elgamal.fixedbase.tables").Value(),
			FixedBaseExps: reg.Counter("elgamal.fixedbase.exps").Value(),
		}
		if s := me.Sum.Seconds(); s > 0 {
			ks.ItemsPerSec = float64(items) / s
		}
		b.Kernels["elgamal.multiexp"] = ks
	}

	cache, err := RunCache(o, beta)
	if err != nil {
		return nil, err
	}
	b.Cache = cache

	backend, err := RunBackend(o, beta)
	if err != nil {
		return nil, err
	}
	b.Backend = backend

	storeRes, err := RunStore(o, beta)
	if err != nil {
		return nil, err
	}
	b.Store = storeRes

	farmRes, err := RunFarm(o, beta)
	if err != nil {
		return nil, err
	}
	b.Farm = farmRes

	if o.Crypto {
		scaling, err := RunScaling(o, nil)
		if err != nil {
			return nil, err
		}
		b.Scaling = scaling
	}
	return b, nil
}

// phaseKeys names the Phases entries: one per vc.phase series, in
// protocol order.
var phaseKeys = []string{"vc.setup", "vc.commit", "vc.decommit", "vc.respond", "vc.verify", "vc.batch"}

// WriteJSON renders the baseline as indented JSON.
func (b *Baseline) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(b)
}

// RenderBaseline prints the baseline as text: per-benchmark phase walls,
// then the phase latency distributions with p50/p90/p99.
func RenderBaseline(w io.Writer, b *Baseline) {
	fmt.Fprintf(w, "baseline %s (go %s, %d cpus, β=%d, %d workers, crypto=%v)\n",
		b.Date, b.GoVersion, b.NumCPU, b.Beta, b.Workers, b.Crypto)
	fmt.Fprintf(w, "calibration (s/op): e=%.3g d=%.3g h=%.3g f=%.3g f_lazy=%.3g f_div=%.3g c=%.3g\n\n",
		b.Calibration.E, b.Calibration.D, b.Calibration.H,
		b.Calibration.F, b.Calibration.FLazy, b.Calibration.FDiv, b.Calibration.C)
	fmt.Fprintf(w, "%-28s %10s %10s %10s %10s %10s\n", "benchmark", "setup", "commit", "respond", "verify", "total")
	for _, bb := range b.Benchmarks {
		fmt.Fprintf(w, "%-28s %9.1fms %9.1fms %9.1fms %9.1fms %9.1fms\n",
			bb.Name, bb.SetupMs, bb.CommitMs, bb.RespondMs, bb.VerifyMs, bb.TotalMs)
	}
	fmt.Fprintf(w, "\n%-28s %8s %10s %10s %10s %10s\n", "phase histogram", "count", "avg", "p50", "p90", "p99")
	for _, name := range phaseKeys {
		q := b.Phases[name]
		fmt.Fprintf(w, "%-28s %8d %9.2fms %9.2fms %9.2fms %9.2fms\n",
			name, q.Count, q.AvgMs, q.P50Ms, q.P90Ms, q.P99Ms)
	}
	for name, k := range b.Kernels {
		fmt.Fprintf(w, "\nkernel %s: %d calls, %d items, %.0f items/s, avg call %.2fms (p90 %.2fms)\n",
			name, k.Calls, k.Items, k.ItemsPerSec, k.AvgCallMs, k.P90CallMs)
	}
	if b.Cache != nil {
		fmt.Fprintln(w)
		RenderCache(w, b.Cache)
	}
	if b.Backend != nil {
		fmt.Fprintln(w)
		RenderBackend(w, b.Backend)
	}
	if b.Store != nil {
		fmt.Fprintln(w)
		RenderStore(w, b.Store)
	}
	if b.Scaling != nil {
		fmt.Fprintln(w)
		RenderScaling(w, b.Scaling)
	}
	if b.Farm != nil {
		fmt.Fprintln(w)
		RenderFarm(w, b.Farm)
	}
}

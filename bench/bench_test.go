package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"zaatar"
)

// reduced is the test-only size: the workloads' own programs and β cut to
// one instance, minimal PCP repetitions, one batch.
var reduced = size{RhoLin: 2, Rho: 2, Beta: 1, MinBatches: 1, Setups: 1, Traced: 1, Reps: 1}

// benchmarkJSON mirrors BENCHMARK.json at the root of the repository.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the tables the
// benchmark prints from in step, both ways.
func TestBenchmarkJSONMatches(t *testing.T) {
	doc := loadBenchmarkJSON(t)
	if !reflect.DeepEqual(doc.Paths, []string{"bench"}) {
		t.Errorf("paths = %v", doc.Paths)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d defined", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if d := doc.Workloads[i]; d.Name != w.Name || d.Why != w.Why {
			t.Errorf("workload %d: declared %q, defined %q (or their reasons differ)", i, d.Name, w.Name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: the reason must be one line of at most 200 characters", w.Name)
		}
	}
	compare := func(kind string, declared []declaredMetric, defined []metric, bounded bool) {
		if len(declared) != len(defined) {
			t.Fatalf("%s: %d metrics declared, %d defined", kind, len(declared), len(defined))
		}
		for i, m := range defined {
			d := declared[i]
			if d.Name != m.Name || d.Unit != m.Unit || d.Better != m.Better {
				t.Errorf("%s %d: declared %+v, defined %+v", kind, i, d, m)
			}
			if bounded != (d.Bound != nil) || (bounded && (*d.Bound != m.Bound || m.Bound <= 0 || m.Bound > 0.25)) {
				t.Errorf("%s %s: bound declared %v, defined %v", kind, m.Name, d.Bound, m.Bound)
			}
		}
	}
	compare("end_to_end", doc.EndToEnd, endToEnd, true)
	compare("per_layer", doc.PerLayer, perLayer, false)
}

// TestReferences checks every generator and native reference against the
// compiled program's own local execution.
func TestReferences(t *testing.T) {
	seen := map[string]bool{}
	for _, w := range workloads {
		if seen[w.File] {
			continue
		}
		seen[w.File] = true
		e, err := newEnv(w, 7, reduced)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := zaatar.Compile(e.src, e.copts...)
		if err != nil {
			t.Fatalf("%s: %v", w.File, err)
		}
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 20; i++ {
			in := w.Gen(rng)
			out, err := prog.Execute(in)
			if err != nil {
				t.Fatalf("%s: %v", w.File, err)
			}
			if !equalOutputs(out, w.Ref(in)) {
				t.Fatalf("%s: program gives %v, reference %v on %v", w.File, out, w.Ref(in), in)
			}
		}
	}
}

func TestSourceDigestGuards(t *testing.T) {
	w := *workloads[0]
	w.SHA256 = strings.Repeat("0", 64)
	if _, err := w.source(); err == nil {
		t.Fatal("a program text that differs from its recorded digest must abort the run")
	}
}

// TestWorkloads runs both passes of every workload at the reduced size: all
// instances accepted and equal to the reference, the soundness canary
// rejected (a pass fails otherwise), bytes counted where there is a wire,
// and exactly the declared metrics printed.
func TestWorkloads(t *testing.T) {
	outDir = t.TempDir()
	doc := loadBenchmarkJSON(t)
	names := func(ms []declaredMetric) map[string]bool {
		out := map[string]bool{}
		for _, m := range ms {
			out[m.Name] = true
		}
		return out
	}
	start := time.Now()
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(w, 1, reduced, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d", w.Name, traced, res.Correct, res.Failed, res.Attempted)
			}
			want := names(doc.EndToEnd)
			if traced {
				want = names(doc.PerLayer)
			}
			var out bytes.Buffer
			printResult(&out, w.Name, res, traced)
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			printed := map[string]bool{}
			for _, line := range lines[:len(lines)-1] {
				if strings.HasPrefix(line, "#") {
					continue
				}
				f := strings.Fields(line)
				if len(f) != 4 || f[0] != w.Name {
					t.Errorf("%s: metric line %q is not `workload metric value unit`", w.Name, line)
					continue
				}
				printed[f[1]] = true
			}
			var last wireResult
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("%s: last line: %v", w.Name, err)
			}
			inJSON := map[string]bool{}
			for name, v := range last.Metrics {
				inJSON[name] = true
				if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s %s = %v", w.Name, name, v.Value)
				}
				if !traced && v.Value <= 0 {
					t.Errorf("%s %s = %v: an end-to-end metric is never 0", w.Name, name, v.Value)
				}
			}
			if !reflect.DeepEqual(printed, want) || !reflect.DeepEqual(inJSON, want) {
				t.Errorf("%s traced=%v: printed %v, in the result %v, declared %v", w.Name, traced, printed, inJSON, want)
			}

			wired := w.Mode != local
			if traced {
				if got := res.Metrics["transport.bytes_to_prover"] > 0 && res.Metrics["transport.bytes_to_verifier"] > 0; got != wired {
					t.Errorf("%s: wire bytes counted = %v, want %v", w.Name, got, wired)
				}
				if got := res.Metrics["store.bundle_bytes"] > 0; got != wired {
					t.Errorf("%s: store section ran = %v, want %v", w.Name, got, wired)
				}
				if got := res.Metrics["farm.shards_per_batch"] > 0; got != (w.Mode == farm2) {
					t.Errorf("%s: farm shards counted = %v", w.Name, got)
				}
				if got := res.Metrics["elgamal.multiexp_items_per_s"] > 0; got != (w.Backend == "zaatar") {
					t.Errorf("%s: elgamal rows filled = %v", w.Name, got)
				}
				if _, err := os.Stat(filepath.Join(outDir, "trace-"+w.Name+".json")); err != nil {
					t.Errorf("%s: %v", w.Name, err)
				}
			}
		}
	}
	t.Logf("the reduced workloads took %v; they are sized to stay under 20 s on two cores", time.Since(start))
	if entries, err := os.ReadDir(outDir); err != nil || len(entries) != len(workloads) {
		t.Errorf("out directory holds %d entries (%v), want one trace per workload and nothing else", len(entries), err)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v", q1, q3)
	}
	// statistics.quantiles([1.0, 2.0], n=4) == [0.75, 2.25]
	if q1, q3 = quartiles([]float64{1, 2}); q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles of two = %v, %v", q1, q3)
	}
}

func TestLedgerSelfTime(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []spanRecord{
		{Name: "batch", ID: 1, Trace: 1, Start: ms(0), End: ms(100)},
		{Name: "a", ID: 2, Parent: 1, Trace: 1, Start: ms(0), End: ms(40)},
		{Name: "b", ID: 3, Parent: 1, Trace: 1, Start: ms(50), End: ms(90)},
		{Name: "c", ID: 4, Parent: 1, Trace: 1, Lane: 1, Start: ms(60), End: ms(95)}, // overlaps b
		{Name: "a1", ID: 5, Parent: 2, Trace: 1, Start: ms(10), End: ms(30)},
	}
	rows := ledger(spans)
	got := map[string]time.Duration{}
	for _, r := range rows {
		got[r.Path] = r.Self
	}
	want := map[string]time.Duration{"batch": ms(15), "batch/a": ms(20), "batch/b": ms(40), "batch/c": ms(35), "batch/a/a1": ms(20)}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
}

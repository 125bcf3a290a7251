package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"zaatar/internal/costmodel"
)

func testBaseline() *Baseline {
	return &Baseline{
		Schema:  BaselineSchema,
		Scale:   "small",
		RhoLin:  10,
		Rho:     2,
		Crypto:  true,
		Workers: 2,
		Beta:    50,
		Calibration: costmodel.OpCosts{
			E: 100e-6, D: 250e-6, H: 2e-6, F: 80e-9, FLazy: 30e-9, FDiv: 500e-9, C: 40e-6,
		},
		Benchmarks: []BaselineBench{
			{Name: "matrix_mult", Instances: 50, SetupMs: 120, CommitMs: 40, RespondMs: 300, VerifyMs: 25, TotalMs: 480, ProverE2EMs: 9},
			{Name: "poly_eval", Instances: 50, SetupMs: 30, CommitMs: 10, RespondMs: 90, VerifyMs: 8, TotalMs: 140, ProverE2EMs: 3},
		},
		Phases: map[string]PhaseQuantile{
			"vc.verify":  {Count: 100, AvgMs: 0.5, P50Ms: 0.4, P90Ms: 0.9, P99Ms: 1.4},
			"vc.respond": {Count: 100, AvgMs: 6, P50Ms: 5, P90Ms: 9, P99Ms: 14},
		},
		Kernels: map[string]KernelStats{
			"elgamal.multiexp": {Calls: 400, Items: 40000, ItemsPerSec: 50000, AvgCallMs: 2.0},
		},
	}
}

func findRow(t *testing.T, r *CompareResult, name string) CompareRow {
	t.Helper()
	for _, row := range r.Rows {
		if row.Name == name {
			return row
		}
	}
	t.Fatalf("row %q not found in %d rows", name, len(r.Rows))
	return CompareRow{}
}

// Identical snapshots compare cleanly: every section yields rows, nothing
// regresses, and the gate would exit 0.
func TestCompareIdentical(t *testing.T) {
	old, cur := testBaseline(), testBaseline()
	r := CompareBaselines(old, cur, CompareOptions{})
	if r.Regressions != 0 || r.Improvements != 0 {
		t.Fatalf("identical snapshots: %d regressions, %d improvements", r.Regressions, r.Improvements)
	}
	sections := map[string]bool{}
	for _, row := range r.Rows {
		if row.Ratio != 1.0 {
			t.Fatalf("row %s has ratio %v on identical inputs", row.Name, row.Ratio)
		}
		sections[row.Section] = true
	}
	for _, s := range []string{"calibration", "benchmark", "phase", "kernel"} {
		if !sections[s] {
			t.Fatalf("section %q produced no rows", s)
		}
	}
	if len(r.Notes) != 0 {
		t.Fatalf("unexpected notes: %v", r.Notes)
	}
}

// A phase mean that blows past its noise allowance regresses; the same
// degradation within the allowance does not.
func TestCompareDetectsRegression(t *testing.T) {
	old, cur := testBaseline(), testBaseline()
	q := cur.Phases["vc.respond"]
	q.AvgMs = old.Phases["vc.respond"].AvgMs * 2 // 2.0× > 1.3× allowance
	cur.Phases["vc.respond"] = q

	r := CompareBaselines(old, cur, CompareOptions{})
	if r.Regressions != 1 {
		t.Fatalf("regressions = %d, want 1", r.Regressions)
	}
	row := findRow(t, r, "vc.respond/avg")
	if !row.Regressed || row.Ratio != 2.0 {
		t.Fatalf("vc.respond/avg: %+v", row)
	}

	// Doubling the allowances (the loose CI setting) absorbs the same 2.0×.
	if r2 := CompareBaselines(old, cur, CompareOptions{Threshold: 2.0}); r2.Regressions != 0 {
		t.Fatalf("threshold 2.0: regressions = %d, want 0", r2.Regressions)
	}

	// Within-noise drift is not a regression.
	q.AvgMs = old.Phases["vc.respond"].AvgMs * 1.2
	cur.Phases["vc.respond"] = q
	if r3 := CompareBaselines(old, cur, CompareOptions{}); r3.Regressions != 0 {
		t.Fatalf("1.2× drift flagged as regression: %+v", r3.Rows)
	}
}

// Throughput metrics invert: fewer items/s is the regression direction.
func TestCompareKernelThroughput(t *testing.T) {
	old, cur := testBaseline(), testBaseline()
	k := cur.Kernels["elgamal.multiexp"]
	k.ItemsPerSec = old.Kernels["elgamal.multiexp"].ItemsPerSec / 2
	cur.Kernels["elgamal.multiexp"] = k

	r := CompareBaselines(old, cur, CompareOptions{})
	row := findRow(t, r, "elgamal.multiexp/items_per_sec")
	if !row.Regressed || row.Ratio != 2.0 {
		t.Fatalf("halved throughput not flagged: %+v", row)
	}

	// Doubled throughput counts as an improvement, never a regression.
	k.ItemsPerSec = old.Kernels["elgamal.multiexp"].ItemsPerSec * 2
	cur.Kernels["elgamal.multiexp"] = k
	r = CompareBaselines(old, cur, CompareOptions{})
	if row := findRow(t, r, "elgamal.multiexp/items_per_sec"); row.Regressed {
		t.Fatalf("doubled throughput flagged as regression: %+v", row)
	}
	if r.Improvements == 0 {
		t.Fatal("doubled throughput not counted as improvement")
	}
}

// Snapshots from different configurations only compare the
// scale-independent calibration constants, and say so.
func TestCompareConfigMismatch(t *testing.T) {
	old, cur := testBaseline(), testBaseline()
	cur.Scale = "smoke"
	cur.Beta = 10
	// Even a wild wall-clock difference must not regress across configs.
	for i := range cur.Benchmarks {
		cur.Benchmarks[i].TotalMs *= 100
	}

	r := CompareBaselines(old, cur, CompareOptions{})
	if r.Regressions != 0 {
		t.Fatalf("cross-config comparison produced regressions: %+v", r.Rows)
	}
	for _, row := range r.Rows {
		if row.Section != "calibration" {
			t.Fatalf("non-calibration row %q compared across configs", row.Name)
		}
	}
	if len(r.Notes) == 0 || !strings.Contains(r.Notes[0], "configs differ") {
		t.Fatalf("missing config-mismatch note: %v", r.Notes)
	}
}

// Benchmarks that disappear or change instance counts are skipped with a
// note rather than silently dropped.
func TestCompareMissingBenchmark(t *testing.T) {
	old, cur := testBaseline(), testBaseline()
	cur.Benchmarks = cur.Benchmarks[:1]
	cur.Benchmarks[0].Instances = 25

	r := CompareBaselines(old, cur, CompareOptions{})
	var sawSkip, sawAbsent bool
	for _, n := range r.Notes {
		if strings.Contains(n, "instances") {
			sawSkip = true
		}
		if strings.Contains(n, "absent") {
			sawAbsent = true
		}
	}
	if !sawSkip || !sawAbsent {
		t.Fatalf("notes = %v; want instance-mismatch and absent notes", r.Notes)
	}
	for _, row := range r.Rows {
		if row.Section == "benchmark" {
			t.Fatalf("benchmark row %q compared despite mismatch", row.Name)
		}
	}
}

func TestLoadBaselineRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bench.json")
	data, err := json.Marshal(testBaseline())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	b, err := LoadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if b.Scale != "small" || len(b.Benchmarks) != 2 {
		t.Fatalf("round trip mangled baseline: %+v", b)
	}

	junk := filepath.Join(dir, "junk.json")
	if err := os.WriteFile(junk, []byte(`{"hello":"world"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadBaseline(junk); err == nil {
		t.Fatal("junk JSON accepted as baseline")
	}
	if _, err := LoadBaseline(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestRenderCompare(t *testing.T) {
	old, cur := testBaseline(), testBaseline()
	q := cur.Phases["vc.verify"]
	q.P99Ms *= 3
	cur.Phases["vc.verify"] = q
	r := CompareBaselines(old, cur, CompareOptions{})

	var buf bytes.Buffer
	RenderCompare(&buf, r)
	out := buf.String()
	for _, want := range []string{"REGRESSED", "vc.verify/p99", "1 regressed"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered report missing %q:\n%s", want, out)
		}
	}
}

// The checked-in snapshots are the CI gate's reference: a current-schema
// smoke baseline compared against each still yields all seven calibration
// rows, with the schema and config differences noted rather than failed.
func TestCompareAgainstCheckedInSnapshots(t *testing.T) {
	paths, err := filepath.Glob("../../BENCH_2026-08-0*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 {
		t.Fatalf("found %d checked-in snapshots, want 2: %v", len(paths), paths)
	}
	want := []string{"e_encrypt", "d_decrypt", "h_cipher_op", "f_field_op", "f_lazy_op", "f_div_op", "c_commit_op"}
	for _, path := range paths {
		old, err := LoadBaseline(path)
		if err != nil {
			t.Fatal(err)
		}
		if old.Schema >= BaselineSchema {
			t.Fatalf("%s: schema %d, want older than %d", path, old.Schema, BaselineSchema)
		}
		cur := testBaseline()
		cur.Calibration = old.Calibration
		r := CompareBaselines(old, cur, CompareOptions{})
		if len(r.Rows) != len(want) {
			t.Fatalf("%s: compared %d rows, want the %d calibration rows: %+v", path, len(r.Rows), len(want), r.Rows)
		}
		for i, row := range r.Rows {
			if row.Section != "calibration" || row.Name != want[i] || row.Ratio != 1 {
				t.Errorf("%s: row %d = %+v, want calibration %s at ratio 1", path, i, row, want[i])
			}
		}
		if r.Regressions != 0 {
			t.Errorf("%s: %d regressions on identical calibration", path, r.Regressions)
		}
		schemaNote := fmt.Sprintf("schema differs (%d vs %d)", old.Schema, BaselineSchema)
		if len(r.Notes) != 2 || !strings.HasPrefix(r.Notes[0], schemaNote) || !strings.Contains(r.Notes[1], "configs differ") {
			t.Errorf("%s: notes = %q, want the schema note then the config note", path, r.Notes)
		}
	}
}

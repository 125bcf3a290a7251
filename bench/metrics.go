package main

import "sort"

// metric declares one number the benchmark prints. BENCHMARK.json at the
// root of the repository lists the same metrics; bench_test.go keeps the
// two in step.
type metric struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: the share of the median by which the metric may worsen
}

// endToEnd are the metrics a user of the system sees, printed by the
// untraced pass for every workload. failed_share is not in the list because
// it must be 0 and a bound is a share of the median: it travels as the
// failed and attempted counts of every result instead.
var endToEnd = []metric{
	{"batch_s", "s", "lower", 0.10},
	{"setup_s", "s", "lower", 0.20},
	{"wire_bytes_per_instance", "bytes", "lower", 0.02},
	{"peak_rss_mb", "MiB", "lower", 0.15},
}

// perLayer are the metrics of single layers, printed by the traced pass.
// The name's prefix is the module the number belongs to. A metric that does
// not apply to a workload (the elgamal rows on the sum-check backend, the
// transport rows of an in-process run) is printed as 0: the empty row is the
// measured form of "this layer does no work here".
var perLayer = []metric{
	{Name: "compiler.compile_s", Unit: "s", Better: "lower"},
	{Name: "compiler.z", Unit: "count", Better: "lower"},
	{Name: "compiler.c", Unit: "count", Better: "lower"},
	{Name: "compiler.k", Unit: "count", Better: "lower"},
	{Name: "compiler.k2", Unit: "count", Better: "lower"},
	{Name: "compiler.solve_s", Unit: "s", Better: "lower"},
	{Name: "compiler.execute_s", Unit: "s", Better: "lower"},

	{Name: "vc.preprocess_s", Unit: "s", Better: "lower"},
	{Name: "vc.setup_s", Unit: "s", Better: "lower"},
	{Name: "vc.commit_s", Unit: "s", Better: "lower"},
	{Name: "vc.decommit_s", Unit: "s", Better: "lower"},
	{Name: "vc.respond_s", Unit: "s", Better: "lower"},
	{Name: "vc.verify_s", Unit: "s", Better: "lower"},
	{Name: "vc.verifier_s_per_instance", Unit: "s", Better: "lower"},
	{Name: "vc.unattributed_share", Unit: "share", Better: "lower"},

	{Name: "elgamal.multiexp_items_per_s", Unit: "1/s", Better: "higher"},
	{Name: "elgamal.fixedbase_enc_per_s", Unit: "1/s", Better: "higher"},

	{Name: "commit.keygen_s", Unit: "s", Better: "lower"},
	{Name: "commit.build_decommit_s", Unit: "s", Better: "lower"},
	{Name: "commit.verify_consistency_s", Unit: "s", Better: "lower"},

	{Name: "pcp.queries_s", Unit: "s", Better: "lower"},
	{Name: "pcp.build_proof_s", Unit: "s", Better: "lower"},
	{Name: "pcp.decide_s", Unit: "s", Better: "lower"},
	{Name: "pcp.sumcheck_prove_s", Unit: "s", Better: "lower"},
	{Name: "pcp.sumcheck_verify_s", Unit: "s", Better: "lower"},
	{Name: "prg.elems_per_s", Unit: "1/s", Better: "higher"},

	{Name: "qap.h_s", Unit: "s", Better: "lower"},

	{Name: "field.mul_ns", Unit: "ns", Better: "lower"},
	{Name: "field.inner_product_elems_per_s", Unit: "1/s", Better: "higher"},

	{Name: "transport.open_s", Unit: "s", Better: "lower"},
	{Name: "transport.bytes_to_prover", Unit: "bytes", Better: "lower"},
	{Name: "transport.bytes_to_verifier", Unit: "bytes", Better: "lower"},
	{Name: "transport.overhead_s", Unit: "s", Better: "lower"},

	{Name: "farm.shards_per_batch", Unit: "count", Better: "lower"},
	{Name: "farm.requeued", Unit: "count", Better: "lower"},
	{Name: "farm.stolen", Unit: "count", Better: "lower"},
	{Name: "farm.overhead_s", Unit: "s", Better: "lower"},

	{Name: "store.put_s", Unit: "s", Better: "lower"},
	{Name: "store.load_s", Unit: "s", Better: "lower"},
	{Name: "store.bundle_bytes", Unit: "bytes", Better: "lower"},

	{Name: "trace_overhead_share", Unit: "share", Better: "lower"},
}

// values holds one run's measurements by metric name.
type values map[string]float64

// median returns the middle of xs (the mean of the two middle values for an
// even count); xs is not modified.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of xs as Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method), so
// -repeat prints the spread the way the acceptance procedure measures it.
// It needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(k int) float64 { // k-th of 4 cut points
		n := len(s)
		j := k * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := float64(k*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

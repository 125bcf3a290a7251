package main

import (
	"context"
	"crypto/rand"
	"errors"
	"fmt"
	"math/big"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"zaatar"
	"zaatar/internal/commit"
	"zaatar/internal/elgamal"
	"zaatar/internal/farm"
	"zaatar/internal/field"
	"zaatar/internal/pcp"
	"zaatar/internal/prg"
	"zaatar/internal/qap"
	"zaatar/internal/store"
	"zaatar/internal/vc"
)

// outDir receives the trace files and, briefly, the store section's
// bundle. Relative to the working directory, which is the repository root
// for `go run ./bench` and bench/run.sh; the tests point it elsewhere.
var outDir = filepath.Join("bench", "out")

// traced is the traced pass. It measures nothing end to end: after a
// warm-up batch it alternates batches run the way the untraced pass runs
// them with batches under spans, then calls the layers' public functions at
// the sizes the batches produced, and reports every per-layer metric plus
// the ledger.
func (e *env) traced(ctx context.Context) (*result, error) {
	m := values{}
	for _, d := range perLayer {
		m[d.Name] = 0
	}
	rec := newRecorder()
	var count tally
	// timed runs one batch through run, under a root span if name is set.
	timed := func(run runner, name string) (float64, error) {
		batch := e.nextBatch()
		runtime.GC() // as in the untraced pass
		var sp *span
		if name != "" {
			sp = rec.root(name)
		}
		start := time.Now()
		accepted, outputs, err := run(ctx, batch)
		took := time.Since(start).Seconds()
		sp.end()
		count.check(e.w, batch, accepted, outputs)
		return took, err
	}
	several := func(run runner, n int) (took []float64, err error) {
		for i := 0; i < n && err == nil; i++ {
			var t float64
			t, err = timed(run, "")
			took = append(took, t)
		}
		return took, err
	}

	prog, _, err := e.setupLocal()
	if err != nil {
		return nil, err
	}
	// byHand drives one batch phase by phase, in process, with a span
	// around every call.
	var last *handBatch
	var lastBatch [][]*big.Int
	byHand := func(ctx context.Context, batch [][]*big.Int) ([]bool, [][]*big.Int, error) {
		hb, err := e.drive(ctx, prog, batch, rec)
		if err != nil {
			return nil, nil, err
		}
		last, lastBatch = hb, batch
		return hb.accepted, hb.outputs, nil
	}

	// own is the workload's own way to run a batch; under is how the traced
	// pass runs one under spans: by hand for the in-process workloads, the
	// same call inside one span for the wire ones.
	own, under, underName := e.localRunner(prog), runner(byHand), ""
	var w *wire
	if e.w.Mode != local {
		sp := rec.root("transport.open")
		w, err = e.openWire(ctx, e.w.Mode)
		sp.end()
		if err != nil {
			return nil, err
		}
		defer w.stop()
		m["transport.open_s"] = w.opened.Seconds()
		own, under, underName = w.run, w.run, "wire.batch"
	}
	if _, err := timed(own, ""); err != nil { // warm-up
		return nil, err
	}
	var plain, spanned []float64
	var toProver, toVerifier int64
	for i := 0; i < e.size.Traced; i++ {
		took, err := timed(own, "")
		if err != nil {
			return nil, err
		}
		plain = append(plain, took)
		if w != nil { // count the bytes of the batches under spans only
			toProver -= w.counter.toProver.Load()
			toVerifier -= w.counter.toVerifier.Load()
		}
		if took, err = timed(under, underName); err != nil {
			return nil, err
		}
		spanned = append(spanned, took)
		if w != nil {
			toProver += w.counter.toProver.Load()
			toVerifier += w.counter.toVerifier.Load()
		}
	}
	// Minima, not medians: with this few batches the fastest one is the
	// steadier estimate of what the spans cost.
	m["trace_overhead_share"] = (slices.Min(spanned) - slices.Min(plain)) / slices.Min(plain)

	if w != nil {
		instances := float64(e.size.Traced * e.beta)
		m["transport.bytes_to_prover"] = float64(toProver) / instances
		m["transport.bytes_to_verifier"] = float64(toVerifier) / instances
		if e.w.Mode == farm2 {
			batches := float64(1 + 2*e.size.Traced)
			m["farm.shards_per_batch"] = float64(w.reg.CounterVec(farm.MetricShards, farm.LabelWorker).Total()) / batches
			m["farm.requeued"] = float64(w.reg.Counter(farm.MetricShardRequeued).Value())
			m["farm.stolen"] = float64(w.reg.Counter(farm.MetricShardStolen).Value())
		}
		if err := w.stop(); err != nil {
			return nil, err
		}
		// The same program by hand, for the vc.* phases and the transport
		// layer's share: a session batch minus the batch without a wire.
		hand, err := several(byHand, e.size.Traced)
		if err != nil {
			return nil, err
		}
		if e.w.Mode == session {
			m["transport.overhead_s"] = median(spanned) - median(hand)
		}
	}
	if e.w.Mode == farm2 {
		// The farm layer is the farm's batch minus the same batch over one
		// plain session, so open one and run it the same number of times.
		one, err := e.openWire(ctx, session)
		if err != nil {
			return nil, err
		}
		base, err := several(one.run, 1+e.size.Traced)
		if serr := one.stop(); err == nil {
			err = serr
		}
		if err != nil {
			return nil, err
		}
		m["farm.overhead_s"] = median(spanned) - median(base[1:]) // base[0] warms the session up
	}
	if e.w.Mode == local {
		if err := last.canary(ctx, lastBatch); err != nil {
			return nil, err
		}
	}

	spans := rec.snapshot()
	e.phaseMetrics(spans, m)
	runtime.GC() // the kernels start from the same heap whatever ran before
	if err := e.kernels(prog, lastBatch[0], last, m); err != nil {
		return nil, err
	}
	if e.w.Mode != local {
		if err := e.storeSection(prog, m); err != nil {
			return nil, err
		}
	}
	tracePath := filepath.Join(outDir, "trace-"+e.w.Name+".json")
	if err := writeChromeTrace(tracePath, spans); err != nil {
		return nil, err
	}
	return &result{
		Correct:   count.failed == 0,
		Attempted: count.attempted,
		Failed:    count.failed,
		Metrics:   m,
		notes: append(e.ledgerNotes(spans, m, last),
			fmt.Sprintf("batch seconds without spans %.3f, under spans %.3f", plain, spanned),
			fmt.Sprintf("trace written to %s (%d spans)", tracePath, len(spans))),
	}, nil
}

// phaseMetrics turns the hand-driven batches' spans into the vc.* metrics:
// per batch for what a batch pays once, per instance for the rest.
func (e *env) phaseMetrics(spans []spanRecord, m values) {
	total := map[string]time.Duration{}
	var batches int
	var attributed time.Duration
	children := map[int][]spanRecord{}
	for _, s := range spans {
		total[s.Name] += s.dur()
		children[s.Parent] = append(children[s.Parent], s)
	}
	for _, s := range children[0] {
		if s.Name == "batch" {
			batches++
			attributed += covered(children[s.ID])
		}
	}
	perBatch := func(name string) float64 { return total[name].Seconds() / float64(batches) }
	perInstance := func(name string) float64 { return perBatch(name) / float64(e.beta) }
	m["vc.setup_s"] = perBatch("vc.setup")
	m["vc.commit_s"] = perInstance("prover.commit")
	m["vc.decommit_s"] = perBatch("vc.decommit")
	m["vc.respond_s"] = perInstance("prover.respond")
	m["vc.verify_s"] = perInstance("vc.verify")
	// The paper's break-even quantity: what verifying one instance costs
	// once the batch's set-up is spread over β, to set beside
	// compiler.execute_s.
	m["vc.verifier_s_per_instance"] = (perBatch("vc.setup")+perBatch("verifier.decommit"))/float64(e.beta) + m["vc.verify_s"]
	m["vc.unattributed_share"] = 1 - attributed.Seconds()/total["batch"].Seconds()
}

// timeIt returns the median wall time of size.Reps calls.
func (e *env) timeIt(fn func() error) (float64, error) {
	took := make([]float64, e.size.Reps)
	for i := range took {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		took[i] = time.Since(start).Seconds()
	}
	return median(took), nil
}

var sink field.Element // keeps the field loops' results alive

// kernels calls each layer's public functions directly, on the last
// hand-driven batch's first instance and at its proof-vector length.
func (e *env) kernels(prog *zaatar.Program, in []*big.Int, hb *handBatch, m values) error {
	f := prog.Field
	st := prog.Stats()
	m["compiler.z"], m["compiler.c"] = float64(st.ZaatarVars), float64(st.ZaatarConstraints)
	m["compiler.k"], m["compiler.k2"] = float64(st.K), float64(st.K2)

	bk, err := pcp.Lookup(e.w.Backend)
	if err != nil {
		return err
	}
	pre, err := bk.Precompute(prog)
	if err != nil {
		return err
	}
	var (
		outputs []*big.Int
		witness []field.Element
		queries pcp.Queries
		proof   *pcp.Proof
	)
	params := pcp.Params{RhoLin: e.size.RhoLin, Rho: e.size.Rho}
	steps := []struct {
		name string
		fn   func() error
	}{
		{"compiler.compile_s", func() error { _, err := zaatar.Compile(e.src, e.copts...); return err }},
		{"vc.preprocess_s", func() error { _, err := vc.PreprocessBackend(prog, e.w.Backend); return err }},
		{"compiler.execute_s", func() error { _, err := prog.Execute(in); return err }},
		{"compiler.solve_s", func() (err error) { outputs, witness, err = bk.Solve(pre, prog, in); return }},
		{"pcp.queries_s", func() (err error) {
			queries, err = bk.Queries(pre, params, prg.NewFromSeed(hb.decommit.Seed, 1))
			return
		}},
		{"pcp.build_proof_s", func() (err error) { proof, err = bk.BuildProof(pre, witness); return }},
	}
	for _, s := range steps {
		if m[s.name], err = e.timeIt(s.fn); err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
	}
	io, err := prog.IOValues(in, outputs)
	if err != nil {
		return err
	}

	// field and prg at the Zaatar proof-vector length |Z|+|C|, whichever
	// backend the workload runs.
	n := st.UZaatar
	var a []field.Element
	took, _ := e.timeIt(func() error { a = f.RandVector(n, prg.NewFromSeed(hb.decommit.Seed, 2)); return nil })
	m["prg.elems_per_s"] = float64(n) / took
	b := f.RandVector(n, prg.NewFromSeed(hb.decommit.Seed, 3))
	const ipRounds = 64
	took, _ = e.timeIt(func() error {
		for i := 0; i < ipRounds; i++ {
			sink = f.InnerProduct(a, b)
		}
		return nil
	})
	m["field.inner_product_elems_per_s"] = float64(ipRounds*n) / took
	const muls = 1 << 20
	took, _ = e.timeIt(func() error {
		x := a[0]
		for i := 0; i < muls; i++ {
			x = f.Mul(x, b[i%n])
		}
		sink = x
		return nil
	})
	m["field.mul_ns"] = took / muls * 1e9

	if !bk.NeedsCommitment() {
		// The bypass, as a measured fact: the batch's commit request and
		// commitments carried no key material and no ciphertexts.
		if len(hb.req.EncR1)+len(hb.req.EncR2) > 0 || hb.req.PK != nil || hb.commitments[0].C1.A != nil {
			return errors.New("the " + e.w.Backend + " backend is expected to bypass the commitment, but its messages carry key material")
		}
		var r1, r2 []field.Element
		if m["pcp.sumcheck_prove_s"], err = e.timeIt(func() (err error) { r1, r2, err = queries.Answer(proof); return }); err != nil {
			return err
		}
		m["pcp.sumcheck_verify_s"], err = e.timeIt(func() error {
			if res := queries.Decide(r1, r2, io); !res.OK {
				return errors.New("sum-check verifier rejected an honest proof: " + res.Reason)
			}
			return nil
		})
		return err
	}

	q, err := qap.New(f, prog.Quad)
	if err != nil {
		return err
	}
	if m["qap.h_s"], err = e.timeIt(func() error { _, err := q.BuildH(witness); return err }); err != nil {
		return err
	}

	group := elgamal.GroupFor(f)
	sk, err := group.GenerateKey(rand.Reader)
	if err != nil {
		return err
	}
	n1, n2 := len(proof.U1), len(proof.U2)
	if n1+n2 != hb.verifier.ProofVectorLen() {
		return fmt.Errorf("kernel proof vector has %d elements, the batch's verifier reports %d", n1+n2, hb.verifier.ProofVectorLen())
	}
	r := f.RandVector(n1+n2, rand.Reader)
	if took, err = e.timeIt(func() error { _, err := sk.EncryptVector(f, r, rand.Reader); return err }); err != nil {
		return err
	}
	m["elgamal.fixedbase_enc_per_s"] = float64(n1+n2) / took

	var k1, k2 *commit.Key
	if m["commit.keygen_s"], err = e.timeIt(func() (err error) {
		if k1, err = commit.NewKeyParallel(f, group, sk, n1, rand.Reader, 1); err != nil {
			return err
		}
		k2, err = commit.NewKeyParallel(f, group, sk, n2, rand.Reader, 1)
		return err
	}); err != nil {
		return err
	}
	q1, q2 := queries.Vectors()
	var d1, d2 commit.Decommit
	var s1, s2 commit.Secrets
	if m["commit.build_decommit_s"], err = e.timeIt(func() (err error) {
		if d1, s1, err = k1.BuildDecommit(q1, rand.Reader); err != nil {
			return err
		}
		d2, s2, err = k2.BuildDecommit(q2, rand.Reader)
		return err
	}); err != nil {
		return err
	}
	p1, p2 := commit.Prepare(group, k1.EncR), commit.Prepare(group, k2.EncR)
	var c1, c2 elgamal.Ciphertext
	if took, err = e.timeIt(func() (err error) {
		if c1, err = commit.CommitPrepared(group, f, p1, proof.U1, 1); err != nil {
			return err
		}
		c2, err = commit.CommitPrepared(group, f, p2, proof.U2, 1)
		return err
	}); err != nil {
		return err
	}
	m["elgamal.multiexp_items_per_s"] = float64(n1+n2) / took

	r1, r2, err := queries.Answer(proof)
	if err != nil {
		return err
	}
	resp1 := commit.Response{Answers: r1, AT: f.InnerProduct(d1.T, proof.U1)}
	resp2 := commit.Response{Answers: r2, AT: f.InnerProduct(d2.T, proof.U2)}
	if m["commit.verify_consistency_s"], err = e.timeIt(func() error {
		if !k1.VerifyConsistency(c1, s1, resp1) || !k2.VerifyConsistency(c2, s2, resp2) {
			return errors.New("consistency test rejected an honest commitment")
		}
		return nil
	}); err != nil {
		return err
	}
	m["pcp.decide_s"], err = e.timeIt(func() error {
		if res := queries.Decide(r1, r2, io); !res.OK {
			return errors.New("PCP verifier rejected an honest proof: " + res.Reason)
		}
		return nil
	})
	return err
}

// storeSection saves and reloads the program's bundle, which is what a
// restarted server with WithStore pays in place of compile + preprocess. No
// timed workload restarts a server, so this only appears here.
func (e *env) storeSection(prog *zaatar.Program, m values) error {
	pre, err := vc.PreprocessBackend(prog, e.w.Backend)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(outDir, "store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	key := store.KeyFor(e.src, prog.Field.Name(), e.w.Backend)
	var size int64
	if m["store.put_s"], err = e.timeIt(func() (err error) { size, err = st.Save(key, prog, pre); return }); err != nil {
		return err
	}
	m["store.bundle_bytes"] = float64(size)
	m["store.load_s"], err = e.timeIt(func() error { _, err := st.Load(key); return err })
	return err
}

// ledgerNotes renders the ledger: the span tree of the traced batches with
// self times and the unattributed row, then each kernel's standalone time
// set against the phase it is paid in.
func (e *env) ledgerNotes(spans []spanRecord, m values, hb *handBatch) []string {
	rows := ledger(spans)
	batches := map[string]int{} // root path → count, to print per-batch times
	for _, r := range rows {
		if r.Depth == 0 {
			batches[r.Path] = r.Count
		}
	}
	notes := []string{fmt.Sprintf("ledger %s: seconds per batch, mean of the traced batches; self = span minus its children", e.w.Name)}
	notes = append(notes, fmt.Sprintf("%-44s %6s %9s %9s %7s", "span", "calls", "total_s", "self_s", "share"))
	var rootTotal float64
	for _, r := range rows {
		n := float64(batches[strings.SplitN(r.Path, "/", 2)[0]])
		name := strings.Repeat("  ", r.Depth) + r.Path[strings.LastIndex(r.Path, "/")+1:]
		if r.Beside {
			name += " (beside its siblings)"
		}
		total, self := r.Total.Seconds()/n, r.Self.Seconds()/n
		if r.Depth == 0 {
			rootTotal = total
		}
		notes = append(notes, fmt.Sprintf("%-44s %6.0f %9.4f %9.4f %6.1f%%", name, float64(r.Count)/n, total, self, 100*total/rootTotal))
		if r.Path == "batch" {
			notes = append(notes, fmt.Sprintf("%-44s %6s %9s %9.4f %6.1f%%", "  unattributed (the batch's self time)", "", "", self, 100*self/total))
		}
	}

	// kernel rows: standalone seconds × calls per batch, under the phase that pays them
	beta := float64(e.beta)
	uLen := float64(hb.verifier.ProofVectorLen())
	perItem := func(rate string) float64 {
		if m[rate] == 0 {
			return 0
		}
		return uLen / m[rate]
	}
	// Elements one instance's answers multiply: every query against its
	// oracle plus the two consistency points. Only the commitment backends
	// answer with inner products.
	var answered float64
	if st, r := hb.states[0], hb.responses[0]; len(hb.req.EncR1) > 0 {
		answered = float64((len(r.R1)+1)*len(st.U1) + (len(r.R2)+1)*len(st.U2))
	}
	kernelRows := []struct {
		phase, kernel string
		calls, each   float64
	}{
		{"vc.setup", "commit.keygen_s", 1, m["commit.keygen_s"]},
		{"vc.setup", "pcp.queries_s", 1, m["pcp.queries_s"]},
		{"vc.preprocess", "vc.preprocess_s", 1, m["vc.preprocess_s"]},
		{"vc.commit", "compiler.solve_s", beta, m["compiler.solve_s"]},
		{"vc.commit", "pcp.build_proof_s (holds qap.h_s)", beta, m["pcp.build_proof_s"]},
		{"vc.commit", "elgamal.multiexp (|u| / items_per_s)", beta, perItem("elgamal.multiexp_items_per_s")},
		{"vc.decommit", "commit.build_decommit_s", 1, m["commit.build_decommit_s"]},
		{"vc.decommit", "pcp.queries_s (prover regenerates)", 1, m["pcp.queries_s"]},
		{"vc.respond", "field.inner_product (elems / elems_per_s)", beta, answered / m["field.inner_product_elems_per_s"]},
		{"vc.respond", "pcp.sumcheck_prove_s", beta, m["pcp.sumcheck_prove_s"]},
		{"vc.verify", "commit.verify_consistency_s", beta, m["commit.verify_consistency_s"]},
		{"vc.verify", "pcp.decide_s", beta, m["pcp.decide_s"]},
		{"vc.verify", "pcp.sumcheck_verify_s", beta, m["pcp.sumcheck_verify_s"]},
	}
	notes = append(notes, fmt.Sprintf("kernels %s: each layer's public function called alone at this workload's sizes (|u|=%.0f, beta=%.0f)", e.w.Name, uLen, beta))
	notes = append(notes, fmt.Sprintf("%-14s %-40s %6s %9s %9s", "phase", "kernel", "calls", "each_s", "total_s"))
	for _, k := range kernelRows {
		if k.calls*k.each < 50e-6 {
			continue // the layer does no work to speak of on this workload
		}
		notes = append(notes, fmt.Sprintf("%-14s %-40s %6.0f %9.4f %9.4f", k.phase, k.kernel, k.calls, k.each, k.calls*k.each))
	}
	return notes
}

package vc

import (
	"bytes"
	"context"
	"math/big"
	"testing"

	"zaatar/internal/compiler"
	"zaatar/internal/elgamal"
	"zaatar/internal/field"
	"zaatar/internal/pcp"
	"zaatar/internal/prg"
)

// testProgram compiles a small computation over the tiny field with a
// generated ElGamal group, so full-crypto tests stay fast.
const testSrc = `
const N = 4;
input x[N] : int8;
output s : int32;
output m : int8;
s = 0;
m = x[0];
for i = 0 to N-1 {
	s = s + x[i] * x[i];
	if (x[i] > m) { m = x[i]; }
}
`

func testSetup(t *testing.T, protocol Protocol, noCommit bool) (*compiler.Program, Config) {
	t.Helper()
	f := field.FTest()
	prog, err := compiler.Compile(f, testSrc)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Protocol:     protocol,
		Params:       pcp.TestParams(),
		NoCommitment: noCommit,
		Seed:         []byte("vc-test-seed"),
	}
	if !noCommit {
		g, err := elgamal.GenerateGroup(f.Modulus(), 256, prg.NewFromSeed([]byte("vc-group"), 0))
		if err != nil {
			t.Fatal(err)
		}
		cfg.Group = g
	}
	return prog, cfg
}

func inputsFor(vals ...int64) []*big.Int {
	out := make([]*big.Int, len(vals))
	for i, v := range vals {
		out[i] = big.NewInt(v)
	}
	return out
}

func TestEndToEndZaatarWithCrypto(t *testing.T) {
	prog, cfg := testSetup(t, Zaatar, false)
	batch := [][]*big.Int{
		inputsFor(1, 2, 3, 4),
		inputsFor(-5, 0, 5, 2),
		inputsFor(7, 7, 7, 7),
	}
	res, err := RunBatch(context.Background(), prog, cfg, batch)
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllAccepted() {
		t.Fatalf("honest batch rejected: %v", res.Reasons)
	}
	// Outputs decode correctly: s = Σx², m = max.
	if res.Outputs[0][0].Int64() != 30 || res.Outputs[0][1].Int64() != 4 {
		t.Errorf("instance 0 outputs = %v", res.Outputs[0])
	}
	if res.Outputs[1][0].Int64() != 54 || res.Outputs[1][1].Int64() != 5 {
		t.Errorf("instance 1 outputs = %v", res.Outputs[1])
	}
}

func TestEndToEndGingerWithCrypto(t *testing.T) {
	prog, cfg := testSetup(t, Ginger, false)
	res, err := RunBatch(context.Background(), prog, cfg, [][]*big.Int{inputsFor(1, 2, 3, 4), inputsFor(0, -1, -2, -3)})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllAccepted() {
		t.Fatalf("honest ginger batch rejected: %v", res.Reasons)
	}
}

func TestEndToEndNoCommitment(t *testing.T) {
	for _, proto := range []Protocol{Zaatar, Ginger} {
		prog, cfg := testSetup(t, proto, true)
		res, err := RunBatch(context.Background(), prog, cfg, [][]*big.Int{inputsFor(3, 1, 4, 1)})
		if err != nil {
			t.Fatalf("%v: %v", proto, err)
		}
		if !res.AllAccepted() {
			t.Fatalf("%v: rejected: %v", proto, res.Reasons)
		}
	}
}

func TestParallelWorkersMatchSerial(t *testing.T) {
	prog, cfg := testSetup(t, Zaatar, false)
	batch := make([][]*big.Int, 8)
	for i := range batch {
		batch[i] = inputsFor(int64(i), int64(i+1), int64(-i), 3)
	}
	cfg.Workers = 4
	res, err := RunBatch(context.Background(), prog, cfg, batch)
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllAccepted() {
		t.Fatalf("parallel batch rejected: %v", res.Reasons)
	}
	for i := range batch {
		want := int64(0)
		for _, v := range batch[i] {
			want += v.Int64() * v.Int64()
		}
		if res.Outputs[i][0].Int64() != want {
			t.Errorf("instance %d: s = %v, want %d", i, res.Outputs[i][0], want)
		}
	}
}

// cheatingProver wraps Prover to corrupt the claimed output after proving a
// different instance.
func TestCheatingOutputRejected(t *testing.T) {
	for _, noCommit := range []bool{false, true} {
		prog, cfg := testSetup(t, Zaatar, noCommit)
		verifier, err := NewVerifier(prog, cfg)
		if err != nil {
			t.Fatal(err)
		}
		prover, err := NewProver(prog, cfg)
		if err != nil {
			t.Fatal(err)
		}
		prover.HandleCommitRequest(verifier.Setup())
		in := inputsFor(1, 2, 3, 4)
		cm, st, err := prover.Commit(context.Background(), in)
		if err != nil {
			t.Fatal(err)
		}
		cm.Output[0].Add(cm.Output[0], big.NewInt(1)) // lie about the sum
		dec, err := verifier.Decommit()
		if err != nil {
			t.Fatal(err)
		}
		if err := prover.HandleDecommit(dec); err != nil {
			t.Fatal(err)
		}
		resp, err := prover.Respond(context.Background(), st)
		if err != nil {
			t.Fatal(err)
		}
		if ok, _ := verifier.VerifyInstance(context.Background(), in, cm, resp); ok {
			t.Fatalf("cheating output accepted (noCommit=%v)", noCommit)
		}
	}
}

func TestTamperedResponseRejectedByConsistency(t *testing.T) {
	// With commitment on, even a tampered response that would satisfy the
	// PCP tests (we tamper t answers) is caught by the consistency test.
	prog, cfg := testSetup(t, Zaatar, false)
	verifier, _ := NewVerifier(prog, cfg)
	prover, _ := NewProver(prog, cfg)
	prover.HandleCommitRequest(verifier.Setup())
	in := inputsFor(1, 1, 1, 1)
	cm, st, err := prover.Commit(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	dec, _ := verifier.Decommit()
	_ = prover.HandleDecommit(dec)
	resp, _ := prover.Respond(context.Background(), st)
	resp.T1 = prog.Field.Add(resp.T1, prog.Field.One())
	if ok, reason := verifier.VerifyInstance(context.Background(), in, cm, resp); ok || reason == "" {
		t.Fatal("tampered consistency answer accepted")
	}
}

// verifyTampered runs one honest instance through commit, decommit and
// respond, passes the response through tamper, and returns the verifier's
// verdict.
func verifyTampered(t *testing.T, protocol Protocol, noCommit bool, tamper func(f *field.Field, r *Response)) (bool, string) {
	t.Helper()
	ctx := context.Background()
	prog, cfg := testSetup(t, protocol, noCommit)
	v, err := NewVerifier(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProver(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.HandleCommitRequest(v.Setup()); err != nil {
		t.Fatal(err)
	}
	in := inputsFor(3, -1, 4, 1)
	cm, st, err := p.Commit(ctx, in)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := v.Decommit()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.HandleDecommit(dec); err != nil {
		t.Fatal(err)
	}
	resp, err := p.Respond(ctx, st)
	if err != nil {
		t.Fatal(err)
	}
	tamper(prog.Field, resp)
	return v.VerifyInstance(ctx, in, cm, resp)
}

// TestDerivedAnswerTamperRejected: the honest prover answers the derived
// queries — the linearity tests' third queries and the self-corrected ones —
// by adding answers it already has, but the verifier never trusts that. An
// answer off linearity is caught by the consistency test against the
// commitment, or, with commitments off, by the PCP test that reads it. A
// response with one answer per base vector instead of per logical query is
// a count mismatch.
func TestDerivedAnswerTamperRejected(t *testing.T) {
	pp := pcp.TestParams()
	lin := 3 * pp.RhoLin         // first query after the linearity triples
	zRep, hRep := lin+3, lin+1   // Zaatar's logical queries per repetition
	g1Rep, g2Rep := lin+3, lin+2 // Ginger's
	oracle1 := func(i int) func(*field.Field, *Response) {
		return func(f *field.Field, r *Response) { r.R1[i] = f.Add(r.R1[i], f.One()) }
	}
	oracle2 := func(i int) func(*field.Field, *Response) {
		return func(f *field.Field, r *Response) { r.R2[i] = f.Add(r.R2[i], f.One()) }
	}
	for _, c := range []struct {
		name       string
		protocol   Protocol
		tamper     func(*field.Field, *Response)
		consistent string // reason with commitments on
		pcpTest    string // reason with commitments off
	}{
		{"zaatar a7 != a5+a6", Zaatar, oracle1(2), "oracle 1", "π_z linearity test failed (rep 0, iter 0)"},
		{"zaatar a10 != a8+a9", Zaatar, oracle2(3 + 2), "oracle 2", "π_h linearity test failed (rep 0, iter 1)"},
		{"zaatar q1 answer != <q_a,u> + a5⁰", Zaatar, oracle1(zRep + lin), "oracle 1", "divisibility correction test failed (rep 1)"},
		{"zaatar q4 answer != <q_d,h> + a8⁰", Zaatar, oracle2(hRep + lin), "oracle 2", "divisibility correction test failed (rep 1)"},
		{"ginger a7 != a5+a6", Ginger, oracle1(g1Rep + 2), "oracle 1", "π₁ linearity test failed (rep 1, iter 0)"},
		{"ginger qq_a⊗qq_b + q8⁰ answer", Ginger, oracle2(lin), "oracle 2", "quadratic correction test failed (rep 0)"},
		{"ginger γ₂ + q8⁰ answer", Ginger, oracle2(g2Rep + lin + 1), "oracle 2", "circuit test failed (rep 1)"},
	} {
		for _, noCommit := range []bool{false, true} {
			want := "commitment consistency test failed for " + c.consistent
			if noCommit {
				want = c.pcpTest
			}
			if ok, reason := verifyTampered(t, c.protocol, noCommit, c.tamper); ok || reason != want {
				t.Errorf("%s (noCommit=%v): verdict %v %q, want rejection %q", c.name, noCommit, ok, reason, want)
			}
		}
	}

	// One answer per base vector: 2ρ_lin+3 and 2ρ_lin+1 per repetition.
	for _, noCommit := range []bool{false, true} {
		ok, reason := verifyTampered(t, Zaatar, noCommit, func(_ *field.Field, r *Response) {
			r.R1 = r.R1[:pp.Rho*(2*pp.RhoLin+3)]
			r.R2 = r.R2[:pp.Rho*(2*pp.RhoLin+1)]
		})
		if ok || reason != "response count mismatch" {
			t.Errorf("base-count response (noCommit=%v): verdict %v %q, want a count mismatch", noCommit, ok, reason)
		}
	}
}

func TestPhaseViolations(t *testing.T) {
	prog, cfg := testSetup(t, Zaatar, true)
	prover, _ := NewProver(prog, cfg)
	if _, _, err := prover.Commit(context.Background(), inputsFor(1, 2, 3, 4)); err == nil {
		t.Error("Commit before HandleCommitRequest accepted")
	}
	if _, err := prover.Respond(context.Background(), &InstanceState{}); err == nil {
		t.Error("Respond before HandleDecommit accepted")
	}
	verifier, _ := NewVerifier(prog, cfg)
	if ok, _ := verifier.VerifyInstance(context.Background(), inputsFor(1, 2, 3, 4), &Commitment{}, &Response{}); ok {
		t.Error("VerifyInstance before Decommit accepted")
	}
}

// TestHandleCommitRequestRejectsMalformed feeds the prover the commit
// requests a malicious verifier could ship over the wire: ciphertext
// components ≡ 0 mod P (which used to panic the signed-digit batch
// inversion), out-of-range, negative, and nil components, a missing public
// key, and broken or mismatched group parameters. Each must surface as an
// error — never a panic — and leave the prover with no open batch.
func TestHandleCommitRequestRejectsMalformed(t *testing.T) {
	prog, cfg := testSetup(t, Zaatar, false)
	v, err := NewVerifier(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProver(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	honest := v.Setup()
	g := honest.PK.Group
	// Setup shares its slices with the verifier's key, so each case mutates
	// a fresh copy.
	clone := func() *CommitRequest {
		c := *honest
		c.EncR1 = append([]elgamal.Ciphertext(nil), honest.EncR1...)
		c.EncR2 = append([]elgamal.Ciphertext(nil), honest.EncR2...)
		return &c
	}
	cases := map[string]*CommitRequest{
		"zero component":       clone(),
		"multiple of P":        clone(),
		"component >= P":       clone(),
		"nil component":        clone(),
		"negative component":   clone(),
		"missing public key":   clone(),
		"nil group":            clone(),
		"even group modulus":   clone(),
		"group order mismatch": clone(),
	}
	cases["zero component"].EncR1[0].A = big.NewInt(0)
	cases["multiple of P"].EncR2[0].B = new(big.Int).Lsh(g.P, 1)
	cases["component >= P"].EncR1[1].B = new(big.Int).Add(g.P, big.NewInt(2))
	cases["nil component"].EncR1[0].B = nil
	cases["negative component"].EncR2[1].A = big.NewInt(-5)
	cases["missing public key"].PK = nil
	cases["nil group"].PK = &elgamal.PublicKey{H: honest.PK.H}
	cases["even group modulus"].PK = &elgamal.PublicKey{
		Group: &elgamal.Group{P: new(big.Int).Add(g.P, big.NewInt(1)), G: g.G, Q: g.Q},
		H:     honest.PK.H,
	}
	cases["group order mismatch"].PK = &elgamal.PublicKey{
		Group: &elgamal.Group{P: g.P, G: g.G, Q: big.NewInt(3)},
		H:     honest.PK.H,
	}
	for name, req := range cases {
		if err := p.HandleCommitRequest(req); err == nil {
			t.Errorf("%s: accepted", name)
		}
		if _, _, err := p.Commit(context.Background(), inputsFor(1, 2, 3, 4)); err == nil {
			t.Errorf("%s: Commit succeeded after a rejected request", name)
		}
	}
	// The honest request still opens the batch.
	if err := p.HandleCommitRequest(v.Setup()); err != nil {
		t.Fatalf("honest request rejected: %v", err)
	}
	if _, _, err := p.Commit(context.Background(), inputsFor(1, 2, 3, 4)); err != nil {
		t.Fatalf("Commit after honest request: %v", err)
	}
}

func TestEmptyBatchRejected(t *testing.T) {
	prog, cfg := testSetup(t, Zaatar, true)
	if _, err := RunBatch(context.Background(), prog, cfg, nil); err == nil {
		t.Error("empty batch accepted")
	}
}

func TestMissingGroupError(t *testing.T) {
	f := field.FTest()
	prog, err := compiler.Compile(f, testSrc)
	if err != nil {
		t.Fatal(err)
	}
	// FTest has no production group and none is configured.
	cfg := Config{Params: pcp.TestParams(), Seed: []byte("s")}
	if _, err := NewVerifier(prog, cfg); err == nil {
		t.Error("missing group not reported")
	}
}

func TestProofVectorLen(t *testing.T) {
	prog, cfg := testSetup(t, Zaatar, true)
	v, err := NewVerifier(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := prog.Stats()
	if got := v.ProofVectorLen(); got != st.UZaatar+1 {
		// +1: the h oracle has |C|+1 coefficients while |u_zaatar| counts
		// |Z|+|C| elements.
		t.Errorf("ProofVectorLen = %d, want %d", got, st.UZaatar+1)
	}

	progG, cfgG := testSetup(t, Ginger, true)
	vg, err := NewVerifier(progG, cfgG)
	if err != nil {
		t.Fatal(err)
	}
	if got := vg.ProofVectorLen(); got != st.UGinger {
		t.Errorf("Ginger ProofVectorLen = %d, want %d", got, st.UGinger)
	}
}

func TestTimingInstrumentation(t *testing.T) {
	prog, cfg := testSetup(t, Zaatar, false)
	res, err := RunBatch(context.Background(), prog, cfg, [][]*big.Int{inputsFor(1, 2, 3, 4)})
	if err != nil {
		t.Fatal(err)
	}
	pt := res.ProverTimes[0]
	if pt.E2E() <= 0 {
		t.Error("prover timing not recorded")
	}
	if pt.Crypto <= 0 {
		t.Error("crypto phase timing not recorded with commitment enabled")
	}
	if res.VerifierSetup() <= 0 || res.VerifierPerInstance() <= 0 {
		t.Error("verifier timings not recorded")
	}
	m := res.Metrics
	if m.Instances != 1 || m.Commit <= 0 || m.Respond <= 0 || m.RespondVerify <= 0 ||
		m.ProverWall <= 0 || m.Total <= 0 {
		t.Errorf("batch metrics not recorded: %+v", m)
	}
}

// TestSecretsIndependentOfSeed pins the fix for a soundness bug: the
// commitment-key secrets and the consistency α's used to be PRG-derived
// from the query seed, which the DecommitRequest reveals to the prover —
// making every "secret" computable by the adversary it was hiding from.
// Two verifiers built from the identical fixed-seed Config must agree on
// the queries but differ in key material and consistency points.
func TestSecretsIndependentOfSeed(t *testing.T) {
	prog, cfg := testSetup(t, Zaatar, false)
	va, err := NewVerifier(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	vb, err := NewVerifier(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ra, rb := va.Setup(), vb.Setup()
	if len(ra.EncR1) == 0 {
		t.Fatal("expected commitment keys")
	}
	if ra.PK.H.Cmp(rb.PK.H) == 0 {
		t.Fatal("two verifiers drew the same ElGamal key: key randomness is seed-derived")
	}
	if ra.EncR1[0].A.Cmp(rb.EncR1[0].A) == 0 {
		t.Fatal("Enc(r) repeats across verifiers: commitment randomness is seed-derived")
	}
	da, err := va.Decommit()
	if err != nil {
		t.Fatal(err)
	}
	db, err := vb.Decommit()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(da.Seed, db.Seed) {
		t.Fatal("a fixed Config.Seed must still pin the query seed")
	}
	if da.T1[0] == db.T1[0] {
		t.Fatal("consistency points repeat across verifiers: α/r secrets are seed-derived")
	}
}

// TestReseedRekeysAndVerifies drives two full protocol rounds on one
// verifier with a Reseed between them: the reseed must regenerate the
// commitment key — each decommit reveals t = r + Σ αᵢqᵢ, so a second
// decommit over the same r would let the prover solve for it — and the
// protocol must still verify end-to-end with the fresh key.
func TestReseedRekeysAndVerifies(t *testing.T) {
	ctx := context.Background()
	prog, cfg := testSetup(t, Zaatar, false)
	v, err := NewVerifier(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProver(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	in := inputsFor(1, 2, 3, 4)
	round := func(tag string) {
		t.Helper()
		p.HandleCommitRequest(v.Setup())
		cm, st, err := p.Commit(ctx, in)
		if err != nil {
			t.Fatalf("%s commit: %v", tag, err)
		}
		dec, err := v.Decommit()
		if err != nil {
			t.Fatalf("%s decommit: %v", tag, err)
		}
		if err := p.HandleDecommit(dec); err != nil {
			t.Fatalf("%s handle decommit: %v", tag, err)
		}
		resp, err := p.Respond(ctx, st)
		if err != nil {
			t.Fatalf("%s respond: %v", tag, err)
		}
		if ok, reason := v.VerifyInstance(ctx, in, cm, resp); !ok {
			t.Fatalf("%s rejected: %s", tag, reason)
		}
	}
	round("batch 0")
	before := v.Setup().EncR1[0]
	if err := v.Reseed(ctx, nil); err != nil {
		t.Fatal(err)
	}
	after := v.Setup().EncR1[0]
	if before.A.Cmp(after.A) == 0 && before.B.Cmp(after.B) == 0 {
		t.Fatal("Reseed kept the commitment key across batches")
	}
	round("batch 1")
}

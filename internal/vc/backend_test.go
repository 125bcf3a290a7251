package vc

import (
	"context"
	"math/big"
	"testing"

	"zaatar/internal/compiler"
	"zaatar/internal/field"
	"zaatar/internal/pcp"
)

// arithSrc is pure arithmetic so every registered backend — including the
// sum-check lane, which needs the circuit to stratify — can run it.
const arithSrc = `
input x, y : int32;
output a, b : int64;
a = (x + y) * (x - y);
b = x * x * y + 3 * y;
`

// TestCrossBackendAgreement drives the same program and inputs through
// every registered backend and demands identical verdicts and outputs —
// the property that makes backend negotiation transparent to callers.
func TestCrossBackendAgreement(t *testing.T) {
	prog, err := compiler.Compile(field.F128(), arithSrc)
	if err != nil {
		t.Fatal(err)
	}
	batch := [][]*big.Int{
		inputsFor(7, 5),
		inputsFor(-3, 11),
		inputsFor(0, 0),
		inputsFor(1<<14, -9),
	}
	want, err := prog.Execute(batch[0])
	if err != nil {
		t.Fatal(err)
	}

	names := pcp.Names()
	if len(names) < 3 {
		t.Fatalf("expected at least 3 registered backends, got %v", names)
	}
	results := make(map[string]*BatchResult)
	for _, name := range names {
		cfg := Config{
			Backend:      name,
			Params:       pcp.TestParams(),
			NoCommitment: true, // crypto is orthogonal to agreement
			Seed:         []byte("cross-backend-seed"),
		}
		res, err := RunBatch(context.Background(), prog, cfg, batch)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.AllAccepted() {
			t.Fatalf("%s: honest batch rejected: %v", name, res.Reasons)
		}
		results[name] = res
	}
	for _, name := range names {
		res := results[name]
		for i := range batch {
			for j := range want {
				ref := results[names[0]].Outputs[i][j]
				if res.Outputs[i][j].Cmp(ref) != 0 {
					t.Errorf("%s instance %d output %d = %v, %s says %v",
						name, i, j, res.Outputs[i][j], names[0], ref)
				}
			}
		}
	}
	// And against the straight-line interpreter.
	for j := range want {
		if results[names[0]].Outputs[0][j].Cmp(want[j]) != 0 {
			t.Errorf("output %d = %v, interpreter says %v", j, results[names[0]].Outputs[0][j], want[j])
		}
	}
}

// TestSumcheckEndToEndVC runs the sum-check lane through the full batch
// driver: no commit-phase crypto is configured, yet the flow (including
// Reseed for a second batch) must hold together.
func TestSumcheckEndToEndVC(t *testing.T) {
	prog, err := compiler.Compile(field.F128(), arithSrc)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Backend: pcp.BackendSumcheck,
		Params:  pcp.TestParams(),
		Seed:    []byte("sumcheck-vc-seed"),
	}
	res, err := RunBatch(context.Background(), prog, cfg, [][]*big.Int{inputsFor(7, 5), inputsFor(2, 3)})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllAccepted() {
		t.Fatalf("rejected: %v", res.Reasons)
	}

	v, err := NewVerifier(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if v.Backend() != pcp.BackendSumcheck {
		t.Fatalf("Backend() = %q", v.Backend())
	}
	if got := v.ProofVectorLen(); got != 0 {
		t.Fatalf("ProofVectorLen = %d, want 0 (no linear oracle)", got)
	}
	// The commit request must carry no ciphertexts even though
	// NoCommitment was not set: the backend's capability drives it.
	if req := v.Setup(); len(req.EncR1) != 0 || len(req.EncR2) != 0 || req.PK != nil {
		t.Fatal("sum-check lane produced a cryptographic commit request")
	}
}

// TestSumcheckCheatingProverRejected tampers with the committed outputs
// between commit and respond; the transcript replay must reject.
func TestSumcheckCheatingProverRejected(t *testing.T) {
	prog, err := compiler.Compile(field.F128(), arithSrc)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Backend: pcp.BackendSumcheck,
		Params:  pcp.TestParams(),
		Seed:    []byte("sumcheck-cheat-seed"),
	}
	v, err := NewVerifier(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProver(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p.HandleCommitRequest(v.Setup())
	in := inputsFor(7, 5)
	cm, st, err := p.Commit(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	// Lie about the first output after solving honestly.
	cm.Output[0] = new(big.Int).Add(cm.Output[0], big.NewInt(1))
	dec, err := v.Decommit()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.HandleDecommit(dec); err != nil {
		t.Fatal(err)
	}
	resp, err := p.Respond(context.Background(), st)
	if err != nil {
		t.Fatal(err)
	}
	ok, reason := v.VerifyInstance(context.Background(), in, cm, resp)
	if ok {
		t.Fatal("verifier accepted a falsified output on the sum-check lane")
	}
	t.Logf("rejected with: %s", reason)
}

// TestBackendNameFallback: an empty Config.Backend means Zaatar, a set one
// is taken as given, and an unknown name errors cleanly.
func TestBackendNameFallback(t *testing.T) {
	if got := (Config{}).backend(); got != pcp.BackendZaatar {
		t.Errorf("backend() = %q, want zaatar", got)
	}
	if got := (Config{Backend: pcp.BackendSumcheck}).backend(); got != pcp.BackendSumcheck {
		t.Errorf("backend() = %q, want sumcheck", got)
	}
	prog, err := compiler.Compile(field.F128(), arithSrc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewVerifier(prog, Config{Backend: "no-such-backend"}); err == nil {
		t.Fatal("NewVerifier accepted an unknown backend name")
	}
	if _, err := NewProver(prog, Config{Backend: "no-such-backend"}); err == nil {
		t.Fatal("NewProver accepted an unknown backend name")
	}
}

// TestPrecomputationReuse: a cached Precomputation is reused only when the
// backend matches.
func TestPrecomputationReuse(t *testing.T) {
	prog, err := compiler.Compile(field.F128(), arithSrc)
	if err != nil {
		t.Fatal(err)
	}
	pre, err := PreprocessBackend(prog, pcp.BackendSumcheck)
	if err != nil {
		t.Fatal(err)
	}
	if pre.Backend != pcp.BackendSumcheck {
		t.Fatalf("Backend = %q", pre.Backend)
	}
	// Mismatched cache entry: the prover must rebuild for zaatar and work.
	cfg := Config{Backend: pcp.BackendZaatar, Params: pcp.TestParams(), NoCommitment: true, Seed: []byte("s")}
	p, err := NewProverPre(prog, cfg, pre)
	if err != nil {
		t.Fatal(err)
	}
	if p.bk.Name() != pcp.BackendZaatar {
		t.Fatalf("prover backend = %q, want zaatar rebuild", p.bk.Name())
	}
	// Matching entry is adopted as-is.
	cfg.Backend = pcp.BackendSumcheck
	p2, err := NewProverPre(prog, cfg, pre)
	if err != nil {
		t.Fatal(err)
	}
	if p2.pre != pre.pre {
		t.Fatal("matching precomputation was rebuilt instead of reused")
	}
}

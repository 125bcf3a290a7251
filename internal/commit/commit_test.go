package commit

import (
	"crypto/sha256"
	"encoding/hex"
	"math/big"
	"testing"

	"zaatar/internal/elgamal"
	"zaatar/internal/field"
	"zaatar/internal/prg"
)

func setup(t *testing.T, n int) (*field.Field, *elgamal.Group, *Key, *prg.ChaCha) {
	t.Helper()
	f := field.FTiny()
	rnd := prg.NewFromSeed([]byte("commit-test"), 0)
	g, err := elgamal.GenerateGroup(f.Modulus(), 256, rnd)
	if err != nil {
		t.Fatal(err)
	}
	sk, err := g.GenerateKey(rnd)
	if err != nil {
		t.Fatal(err)
	}
	k, err := NewKeyParallel(f, g, sk, n, rnd, 1)
	if err != nil {
		t.Fatal(err)
	}
	return f, g, k, rnd
}

// commitTo is the prover's commit phase for one instance against k's Enc(r).
func commitTo(g *elgamal.Group, f *field.Field, k *Key, u []field.Element) (Commitment, error) {
	return CommitPrepared(g, f, Prepare(g, k.EncR), u, 1)
}

func TestHonestProverPasses(t *testing.T) {
	f, g, k, rnd := setup(t, 24)
	u := f.RandVector(24, rnd)

	c, err := commitTo(g, f, k, u)
	if err != nil {
		t.Fatal(err)
	}
	queries := [][]field.Element{f.RandVector(24, rnd), f.RandVector(24, rnd), f.RandVector(24, rnd)}
	d, secrets, err := k.BuildDecommit(queries, rnd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := Respond(f, u, d)
	if err != nil {
		t.Fatal(err)
	}
	if !k.VerifyConsistency(c, secrets, resp) {
		t.Fatal("honest prover rejected")
	}
	// The answers are the true inner products.
	for i, q := range queries {
		if !f.Equal(resp.Answers[i], f.InnerProduct(q, u)) {
			t.Fatal("answer is not the linear function value")
		}
	}
}

func TestLyingProverCaught(t *testing.T) {
	f, g, k, rnd := setup(t, 16)
	u := f.RandVector(16, rnd)
	c, _ := commitTo(g, f, k, u)
	queries := [][]field.Element{f.RandVector(16, rnd), f.RandVector(16, rnd)}
	d, secrets, _ := k.BuildDecommit(queries, rnd)

	resp, _ := Respond(f, u, d)
	// Tamper with one answer after committing.
	resp.Answers[1] = f.Add(resp.Answers[1], f.One())
	if k.VerifyConsistency(c, secrets, resp) {
		t.Fatal("tampered answer accepted")
	}
}

func TestSwitchedFunctionCaught(t *testing.T) {
	// Prover commits to u but answers queries with a different u'.
	f, g, k, rnd := setup(t, 16)
	u := f.RandVector(16, rnd)
	u2 := f.RandVector(16, rnd)
	c, _ := commitTo(g, f, k, u)
	queries := [][]field.Element{f.RandVector(16, rnd)}
	d, secrets, _ := k.BuildDecommit(queries, rnd)
	resp, _ := Respond(f, u2, d)
	if k.VerifyConsistency(c, secrets, resp) {
		t.Fatal("function switch accepted")
	}
}

func TestTamperedConsistencyAnswerCaught(t *testing.T) {
	f, g, k, rnd := setup(t, 8)
	u := f.RandVector(8, rnd)
	c, _ := commitTo(g, f, k, u)
	d, secrets, _ := k.BuildDecommit([][]field.Element{f.RandVector(8, rnd)}, rnd)
	resp, _ := Respond(f, u, d)
	resp.AT = f.Add(resp.AT, f.One())
	if k.VerifyConsistency(c, secrets, resp) {
		t.Fatal("tampered consistency answer accepted")
	}
}

// A commitment that is not a ciphertext — a component missing, as a gob
// message that omits the field decodes, or zero or out of range — is
// rejected, not decrypted.
func TestMalformedCommitmentRejected(t *testing.T) {
	f, g, k, rnd := setup(t, 8)
	u := f.RandVector(8, rnd)
	c, _ := commitTo(g, f, k, u)
	d, secrets, _ := k.BuildDecommit([][]field.Element{f.RandVector(8, rnd)}, rnd)
	resp, _ := Respond(f, u, d)
	for name, bad := range map[string]Commitment{
		"nil A":  {B: c.B},
		"nil B":  {A: c.A},
		"zero A": {A: new(big.Int), B: c.B},
		"B ≥ P":  {A: c.A, B: new(big.Int).Add(c.B, g.P)},
	} {
		if k.VerifyConsistency(bad, secrets, resp) {
			t.Errorf("%s: commitment accepted", name)
		}
	}
	if !k.VerifyConsistency(c, secrets, resp) {
		t.Fatal("honest commitment rejected")
	}
}

func TestQueryLengthMismatch(t *testing.T) {
	f, _, k, rnd := setup(t, 8)
	if _, _, err := k.BuildDecommit([][]field.Element{f.RandVector(9, rnd)}, rnd); err == nil {
		t.Error("BuildDecommit accepted wrong-length query")
	}
	d := Decommit{Queries: [][]field.Element{f.RandVector(8, rnd)}, T: f.RandVector(7, rnd)}
	if _, err := Respond(f, f.RandVector(8, rnd), d); err == nil {
		t.Error("Respond accepted wrong-length t")
	}
}

func TestZeroQueries(t *testing.T) {
	f, g, k, rnd := setup(t, 8)
	u := f.RandVector(8, rnd)
	c, _ := commitTo(g, f, k, u)
	d, secrets, err := k.BuildDecommit(nil, rnd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := Respond(f, u, d)
	if err != nil {
		t.Fatal(err)
	}
	if !k.VerifyConsistency(c, secrets, resp) {
		t.Fatal("zero-query decommit rejected for honest prover")
	}
}

func TestKeyRejectsMismatchedGroup(t *testing.T) {
	f := field.FTiny()
	rnd := prg.NewFromSeed([]byte("mismatch"), 0)
	g := elgamal.GroupF128() // order != FTiny modulus
	sk, _ := g.GenerateKey(rnd)
	if _, err := NewKeyParallel(f, g, sk, 4, rnd, 1); err == nil {
		t.Error("NewKeyParallel accepted mismatched group/field")
	}
}

// TestBuildDecommitPinned pins the consistency point t that BuildDecommit
// sends for a fixed prg reader, on every field: the fold must reproduce the
// term-by-term t = r + Σ α_i·q_i to the byte (the digests were taken from
// that fold), and draw the same α's from the same reader. The stream
// position afterwards shows nothing else was read.
func TestBuildDecommitPinned(t *testing.T) {
	for _, c := range []struct {
		f    *field.Field
		want string
		next uint64
	}{
		{field.F128(), "854e2715d282e4dd26b12762016cc4d1a955ef1efe8dc5b163075ecb5b4dd088", 0xdfa45dba9b0081d4},
		{field.F220(), "f1a6d8ff0f2c6ce9bed010de67f188310ff22ec4ed2cc9c97742ce3eb9a599ac", 0x37b32c34e40e6b29},
		{field.FTest(), "fec29830731c9b367dec0ae4337ecf5c7e275013ad14eb693a812a693801818a", 0x6a0dcd38ea6582e7},
		{field.FTiny(), "72e10ae3e1c4ceb250bbcb8be886d64ab6889212fac048dd6151f1ea6849f34e", 0x3fbfaf44f94e344a},
	} {
		f := c.f
		rnd := prg.NewFromSeed([]byte("commit.BuildDecommit pin"), 0)
		const n, mu = 300, 40
		k := &Key{F: f, R: f.RandVector(n, rnd)}
		queries := make([][]field.Element, mu)
		for i := range queries {
			queries[i] = f.RandVector(n, rnd)
		}
		d, _, err := k.BuildDecommit(queries, rnd)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(field.AppendElements(nil, d.T))
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s: sha256(t) = %s, want %s", f.Name(), got, c.want)
		}
		if got := rnd.Uint64(); got != c.next {
			t.Errorf("%s: stream stands at %#x, want %#x", f.Name(), got, c.next)
		}
	}
}

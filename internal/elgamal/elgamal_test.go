package elgamal

import (
	"math/big"
	"math/rand"
	"testing"

	"zaatar/internal/field"
	"zaatar/internal/prg"
)

func testGroup(t *testing.T) (*Group, *field.Field) {
	t.Helper()
	f := field.FTiny()
	rnd := prg.NewFromSeed([]byte("elgamal-test-group"), 0)
	g, err := GenerateGroup(f.Modulus(), 256, rnd)
	if err != nil {
		t.Fatalf("GenerateGroup: %v", err)
	}
	return g, f
}

func checkGroup(t *testing.T, g *Group, name string) {
	t.Helper()
	if !g.P.ProbablyPrime(32) {
		t.Errorf("%s: P is not prime", name)
	}
	// q | P-1
	pm1 := new(big.Int).Sub(g.P, big.NewInt(1))
	if new(big.Int).Mod(pm1, g.Q).Sign() != 0 {
		t.Errorf("%s: q does not divide P-1", name)
	}
	// G has order exactly q (q prime): G != 1 and G^q = 1.
	if g.G.Cmp(big.NewInt(1)) == 0 {
		t.Errorf("%s: generator is 1", name)
	}
	if new(big.Int).Exp(g.G, g.Q, g.P).Cmp(big.NewInt(1)) != 0 {
		t.Errorf("%s: generator order does not divide q", name)
	}
}

func TestProductionGroups(t *testing.T) {
	checkGroup(t, GroupF128(), "F128 group")
	checkGroup(t, GroupF220(), "F220 group")
	if GroupF128().P.BitLen() != 1024 || GroupF220().P.BitLen() != 1024 {
		t.Error("production groups are not 1024-bit")
	}
	if GroupF128().Q.Cmp(field.F128().Modulus()) != 0 {
		t.Error("F128 group order != field modulus")
	}
	if GroupFor(field.F128()) != GroupF128() || GroupFor(field.F220()) != GroupF220() {
		t.Error("GroupFor mismatch")
	}
	if GroupFor(field.FTiny()) != nil {
		t.Error("GroupFor(FTiny) should be nil")
	}
}

// TestValidateAndCheckCiphertexts covers the ingest screens for
// wire-supplied material: honest output passes, every degenerate shape that
// would violate a kernel precondition is named and rejected.
func TestValidateAndCheckCiphertexts(t *testing.T) {
	g, f := testGroup(t)
	if err := g.Validate(); err != nil {
		t.Fatalf("honest group rejected: %v", err)
	}
	badGroups := map[string]*Group{
		"nil group":     nil,
		"nil modulus":   {G: g.G, Q: g.Q},
		"even modulus":  {P: new(big.Int).Add(g.P, big.NewInt(1)), G: g.G, Q: g.Q},
		"order too big": {P: g.P, G: g.G, Q: new(big.Int).Set(g.P)},
		"order zero":    {P: g.P, G: g.G, Q: big.NewInt(0)},
		"generator 1":   {P: g.P, G: big.NewInt(1), Q: g.Q},
		"generator > P": {P: g.P, G: new(big.Int).Add(g.P, big.NewInt(5)), Q: g.Q},
	}
	for name, bg := range badGroups {
		if err := bg.Validate(); err == nil {
			t.Errorf("Validate accepted %s", name)
		}
	}

	rnd := prg.NewFromSeed([]byte("check-cts"), 0)
	sk, err := g.GenerateKey(rnd)
	if err != nil {
		t.Fatal(err)
	}
	cts, err := sk.EncryptVector(f, f.RandVector(4, rnd), rnd)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.CheckCiphertexts(cts); err != nil {
		t.Fatalf("honest ciphertexts rejected: %v", err)
	}
	bad := [...]*big.Int{big.NewInt(0), new(big.Int).Set(g.P), new(big.Int).Lsh(g.P, 3), big.NewInt(-1), nil}
	for i, c := range bad {
		cs := append([]Ciphertext(nil), cts...)
		if i%2 == 0 {
			cs[i%len(cs)].A = c
		} else {
			cs[i%len(cs)].B = c
		}
		if err := g.CheckCiphertexts(cs); err == nil {
			t.Errorf("CheckCiphertexts accepted component %v", c)
		}
	}
}

func TestGeneratedGroup(t *testing.T) {
	g, f := testGroup(t)
	checkGroup(t, g, "generated group")
	if g.Q.Cmp(f.Modulus()) != 0 {
		t.Error("generated group order mismatch")
	}
}

func TestEncryptDecrypt(t *testing.T) {
	g, f := testGroup(t)
	rnd := prg.NewFromSeed([]byte("keys"), 1)
	sk, err := g.GenerateKey(rnd)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 30; i++ {
		m := f.FromUint64(uint64(rng.Intn(12289)))
		ct, err := sk.Encrypt(f, m, rnd)
		if err != nil {
			t.Fatal(err)
		}
		if sk.DecryptExp(ct).Cmp(g.ExpOfField(f, m)) != 0 {
			t.Fatalf("decrypt mismatch for m=%v", f.ToBig(m))
		}
	}
}

func TestCiphertextsAreRandomized(t *testing.T) {
	g, f := testGroup(t)
	rnd := prg.NewFromSeed([]byte("keys"), 2)
	sk, _ := g.GenerateKey(rnd)
	m := f.FromUint64(5)
	c1, _ := sk.Encrypt(f, m, rnd)
	c2, _ := sk.Encrypt(f, m, rnd)
	if c1.A.Cmp(c2.A) == 0 {
		t.Error("two encryptions share randomness")
	}
	if sk.DecryptExp(c1).Cmp(sk.DecryptExp(c2)) != 0 {
		t.Error("same plaintext decrypts differently")
	}
}

func TestHomomorphicAdd(t *testing.T) {
	g, f := testGroup(t)
	rnd := prg.NewFromSeed([]byte("keys"), 3)
	sk, _ := g.GenerateKey(rnd)
	m1, m2 := f.FromUint64(111), f.FromUint64(222)
	c1, _ := sk.Encrypt(f, m1, rnd)
	c2, _ := sk.Encrypt(f, m2, rnd)
	sum := g.Add(c1, c2)
	if sk.DecryptExp(sum).Cmp(g.ExpOfField(f, f.Add(m1, m2))) != 0 {
		t.Error("homomorphic addition failed")
	}
}

func TestHomomorphicScalarMul(t *testing.T) {
	g, f := testGroup(t)
	rnd := prg.NewFromSeed([]byte("keys"), 4)
	sk, _ := g.GenerateKey(rnd)
	m := f.FromUint64(7)
	s := f.FromUint64(39)
	ct, _ := sk.Encrypt(f, m, rnd)
	got := sk.DecryptExp(g.ScalarMul(ct, f, s))
	if got.Cmp(g.ExpOfField(f, f.Mul(s, m))) != 0 {
		t.Error("homomorphic scalar multiplication failed")
	}
}

func TestHomomorphicInnerProduct(t *testing.T) {
	g, f := testGroup(t)
	rnd := prg.NewFromSeed([]byte("keys"), 5)
	sk, _ := g.GenerateKey(rnd)
	n := 16
	m := f.RandVector(n, rnd)
	u := f.RandVector(n, rnd)
	u[3] = f.Zero() // exercise the sparse skip
	cts, err := sk.EncryptVector(f, m, rnd)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := g.InnerProduct(cts, f, u)
	if err != nil {
		t.Fatal(err)
	}
	want := f.InnerProduct(m, u)
	if sk.DecryptExp(ct).Cmp(g.ExpOfField(f, want)) != 0 {
		t.Error("homomorphic inner product failed")
	}
}

func TestInnerProductLengthMismatch(t *testing.T) {
	g, f := testGroup(t)
	if _, err := g.InnerProduct(make([]Ciphertext, 2), f, make([]field.Element, 3)); err == nil {
		t.Error("length mismatch not rejected")
	}
}

func TestProductionEncryptDecrypt(t *testing.T) {
	if testing.Short() {
		t.Skip("1024-bit crypto in -short mode")
	}
	for _, tc := range []struct {
		g *Group
		f *field.Field
	}{{GroupF128(), field.F128()}, {GroupF220(), field.F220()}} {
		rnd := prg.NewFromSeed([]byte("prod"), 6)
		sk, err := tc.g.GenerateKey(rnd)
		if err != nil {
			t.Fatal(err)
		}
		m := tc.f.Rand(rnd)
		ct, _ := sk.Encrypt(tc.f, m, rnd)
		if sk.DecryptExp(ct).Cmp(tc.g.ExpOfField(tc.f, m)) != 0 {
			t.Errorf("%s: production encrypt/decrypt failed", tc.f.Name())
		}
	}
}

// TestEncryptMatchesPublicKeyFormula: the secret-key path g^((x·k + m)
// mod Q) is the textbook public-key ciphertext (g^k, h^k·g^m mod P), bit for
// bit, on the test group and both production groups at one and three
// workers. The reference replays an identically seeded stream through
// randExponent and recomputes each component with math/big Exp.
func TestEncryptMatchesPublicKeyFormula(t *testing.T) {
	tg, tf := testGroup(t)
	for _, c := range []struct {
		g *Group
		f *field.Field
	}{{tg, tf}, {GroupF128(), field.F128()}, {GroupF220(), field.F220()}} {
		g, f := c.g, c.f
		for _, workers := range []int{1, 3} {
			const n = 24
			setup := func() (*SecretKey, []field.Element, *prg.ChaCha) {
				rnd := prg.NewFromSeed([]byte("pk-formula"), 0)
				sk, err := g.GenerateKey(rnd)
				if err != nil {
					t.Fatal(err)
				}
				return sk, f.RandVector(n, rnd), rnd
			}
			sk, v, rnd := setup()
			got, err := sk.EncryptVectorParallel(f, v, rnd, workers)
			if err != nil {
				t.Fatal(err)
			}
			_, _, ref := setup()
			for i := range v {
				k, err := randExponent(g.Q, ref)
				if err != nil {
					t.Fatal(err)
				}
				a := new(big.Int).Exp(g.G, k, g.P)
				b := new(big.Int).Exp(sk.H, k, g.P)
				b.Mul(b, new(big.Int).Exp(g.G, f.ToBig(v[i]), g.P)).Mod(b, g.P)
				if got[i].A.Cmp(a) != 0 || got[i].B.Cmp(b) != 0 {
					t.Fatalf("%s workers=%d: ciphertext %d differs from (g^k, h^k·g^m)", f.Name(), workers, i)
				}
			}
			if got, want := rnd.Uint64(), ref.Uint64(); got != want {
				t.Fatalf("%s workers=%d: stream stands at %#x, reference at %#x", f.Name(), workers, got, want)
			}
		}
	}
}

func BenchmarkEncrypt(b *testing.B) {
	// This is the parameter e of Figure 3 / §5.1.
	for _, tc := range []struct {
		g *Group
		f *field.Field
	}{{GroupF128(), field.F128()}, {GroupF220(), field.F220()}} {
		b.Run(tc.f.Name(), func(b *testing.B) {
			rnd := prg.NewFromSeed([]byte("bench"), 0)
			sk, _ := tc.g.GenerateKey(rnd)
			m := tc.f.Rand(rnd)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, _ = sk.Encrypt(tc.f, m, rnd)
			}
		})
	}
}

func BenchmarkEncryptVector(b *testing.B) {
	// The verifier's per-batch Enc(r) setup: two generator-table walks per
	// element, g^k and g^(x·k + m), over one shared exponent reduction.
	g, f := GroupF128(), field.F128()
	rnd := prg.NewFromSeed([]byte("bench-vec"), 3)
	sk, _ := g.GenerateKey(rnd)
	v := f.RandVector(256, rnd)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sk.EncryptVector(f, v, rnd); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecrypt(b *testing.B) {
	// Parameter d.
	g, f := GroupF128(), field.F128()
	rnd := prg.NewFromSeed([]byte("bench"), 1)
	sk, _ := g.GenerateKey(rnd)
	ct, _ := sk.Encrypt(f, f.Rand(rnd), rnd)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sk.DecryptExp(ct)
	}
}

func BenchmarkCiphertextAddMul(b *testing.B) {
	// Parameter h: one ScalarMul plus one Add.
	g, f := GroupF128(), field.F128()
	rnd := prg.NewFromSeed([]byte("bench"), 2)
	sk, _ := g.GenerateKey(rnd)
	ct, _ := sk.Encrypt(f, f.Rand(rnd), rnd)
	s := f.Rand(rnd)
	acc := g.One()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc = g.Add(acc, g.ScalarMul(ct, f, s))
	}
}

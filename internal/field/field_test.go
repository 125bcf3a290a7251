package field

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"

	"zaatar/internal/prg"
)

// testReader adapts math/rand to io.Reader for deterministic element
// sampling in tests.
type testReader struct{ r *rand.Rand }

func (t testReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(t.r.Intn(256))
	}
	return len(p), nil
}

func allFields() []*Field {
	return []*Field{F128(), F220(), FTiny(), FTest()}
}

func TestProductionModuliArePrime(t *testing.T) {
	for _, f := range allFields() {
		if !f.Modulus().ProbablyPrime(64) {
			t.Errorf("%s: modulus %v is not prime", f.Name(), f.Modulus())
		}
	}
}

func TestProductionModuliBitLengths(t *testing.T) {
	if got := F128().Bits(); got != 128 {
		t.Errorf("F128 bit length = %d, want 128", got)
	}
	if got := F220().Bits(); got != 220 {
		t.Errorf("F220 bit length = %d, want 220", got)
	}
}

func TestTwoAdicity(t *testing.T) {
	if got := F128().TwoAdicity(); got < 32 {
		t.Errorf("F128 2-adicity = %d, want >= 32", got)
	}
	if got := F220().TwoAdicity(); got < 32 {
		t.Errorf("F220 2-adicity = %d, want >= 32", got)
	}
	if got := FTiny().TwoAdicity(); got != 12 {
		t.Errorf("FTiny 2-adicity = %d, want 12", got)
	}
	if got := FTest().TwoAdicity(); got != 56 {
		t.Errorf("FTest 2-adicity = %d, want 56", got)
	}
}

func TestRootOfUnityOrders(t *testing.T) {
	for _, f := range allFields() {
		s := f.TwoAdicity()
		for _, k := range []uint{1, 2, 8, s} {
			if k > s {
				continue
			}
			u := f.RootOfUnity(k)
			// u^(2^k) must be 1 and u^(2^(k-1)) must not be.
			v := u
			for i := uint(0); i < k-1; i++ {
				v = f.Mul(v, v)
			}
			if f.IsOne(v) {
				t.Errorf("%s: 2^%d-th root of unity has smaller order", f.Name(), k)
			}
			v = f.Mul(v, v)
			if !f.IsOne(v) {
				t.Errorf("%s: 2^%d-th root of unity has larger order", f.Name(), k)
			}
		}
	}
}

func TestBigRoundTrip(t *testing.T) {
	rng := testReader{rand.New(rand.NewSource(1))}
	for _, f := range allFields() {
		for i := 0; i < 200; i++ {
			a := f.Rand(rng)
			got := f.FromBig(f.ToBig(a))
			if !f.Equal(got, a) {
				t.Fatalf("%s: FromBig(ToBig(a)) != a", f.Name())
			}
		}
	}
}

func TestSignedRoundTrip(t *testing.T) {
	for _, f := range []*Field{F128(), F220()} {
		for _, v := range []int64{0, 1, -1, 42, -42, 1 << 40, -(1 << 40), 1<<62 - 1, -(1<<62 - 1)} {
			e := f.FromInt64(v)
			if got := f.SignedBig(e).Int64(); got != v {
				t.Errorf("%s: SignedBig(FromInt64(%d)) = %d", f.Name(), v, got)
			}
		}
	}
}

// TestArithmeticAgainstBig cross-checks limb arithmetic against math/big.
func TestArithmeticAgainstBig(t *testing.T) {
	rng := testReader{rand.New(rand.NewSource(2))}
	for _, f := range allFields() {
		p := f.Modulus()
		for i := 0; i < 500; i++ {
			a, b := f.Rand(rng), f.Rand(rng)
			ab, bb := f.ToBig(a), f.ToBig(b)

			checks := []struct {
				name string
				got  Element
				want *big.Int
			}{
				{"add", f.Add(a, b), new(big.Int).Add(ab, bb)},
				{"sub", f.Sub(a, b), new(big.Int).Sub(ab, bb)},
				{"mul", f.Mul(a, b), new(big.Int).Mul(ab, bb)},
				{"neg", f.Neg(a), new(big.Int).Neg(ab)},
				{"square", f.Square(a), new(big.Int).Mul(ab, ab)},
				{"double", f.Double(a), new(big.Int).Lsh(ab, 1)},
			}
			for _, c := range checks {
				want := new(big.Int).Mod(c.want, p)
				if f.ToBig(c.got).Cmp(want) != 0 {
					t.Fatalf("%s: %s mismatch: a=%v b=%v got=%v want=%v",
						f.Name(), c.name, ab, bb, f.ToBig(c.got), want)
				}
			}
		}
	}
}

// TestMulExhaustiveEdges drives Mul through boundary values where carry
// handling matters: 0, 1, p-1, p-2, and values with all-ones limbs reduced
// mod p.
func TestMulExhaustiveEdges(t *testing.T) {
	for _, f := range allFields() {
		p := f.Modulus()
		edges := []*big.Int{
			big.NewInt(0), big.NewInt(1), big.NewInt(2),
			new(big.Int).Sub(p, big.NewInt(1)),
			new(big.Int).Sub(p, big.NewInt(2)),
			new(big.Int).Rsh(p, 1),
		}
		for _, x := range edges {
			for _, y := range edges {
				got := f.ToBig(f.Mul(f.FromBig(x), f.FromBig(y)))
				want := new(big.Int).Mul(x, y)
				want.Mod(want, p)
				if got.Cmp(want) != 0 {
					t.Fatalf("%s: %v * %v = %v, want %v", f.Name(), x, y, got, want)
				}
			}
		}
	}
}

func TestFieldAxiomsQuick(t *testing.T) {
	for _, f := range allFields() {
		f := f
		rng := testReader{rand.New(rand.NewSource(3))}
		gen := func() Element { return f.Rand(rng) }

		commutAdd := func() bool {
			a, b := gen(), gen()
			return f.Equal(f.Add(a, b), f.Add(b, a))
		}
		commutMul := func() bool {
			a, b := gen(), gen()
			return f.Equal(f.Mul(a, b), f.Mul(b, a))
		}
		assocMul := func() bool {
			a, b, c := gen(), gen(), gen()
			return f.Equal(f.Mul(f.Mul(a, b), c), f.Mul(a, f.Mul(b, c)))
		}
		distrib := func() bool {
			a, b, c := gen(), gen(), gen()
			return f.Equal(f.Mul(a, f.Add(b, c)), f.Add(f.Mul(a, b), f.Mul(a, c)))
		}
		addInverse := func() bool {
			a := gen()
			return f.IsZero(f.Add(a, f.Neg(a)))
		}
		mulInverse := func() bool {
			a := gen()
			if f.IsZero(a) {
				return true
			}
			return f.IsOne(f.Mul(a, f.Inv(a)))
		}
		for name, prop := range map[string]func() bool{
			"a+b=b+a": commutAdd, "ab=ba": commutMul, "(ab)c=a(bc)": assocMul,
			"a(b+c)=ab+ac": distrib, "a+(-a)=0": addInverse, "a·a⁻¹=1": mulInverse,
		} {
			if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
				t.Errorf("%s: axiom %s failed: %v", f.Name(), name, err)
			}
		}
	}
}

func TestExp(t *testing.T) {
	rng := testReader{rand.New(rand.NewSource(4))}
	for _, f := range allFields() {
		a := f.Rand(rng)
		if !f.IsOne(f.Exp(a, big.NewInt(0))) {
			t.Errorf("%s: a^0 != 1", f.Name())
		}
		if !f.Equal(f.Exp(a, big.NewInt(1)), a) {
			t.Errorf("%s: a^1 != a", f.Name())
		}
		if !f.Equal(f.Exp(a, big.NewInt(5)), f.ExpUint(a, 5)) {
			t.Errorf("%s: Exp and ExpUint disagree", f.Name())
		}
		// Fermat: a^(p-1) = 1 for a != 0.
		if !f.IsZero(a) {
			pm1 := new(big.Int).Sub(f.Modulus(), big.NewInt(1))
			if !f.IsOne(f.Exp(a, pm1)) {
				t.Errorf("%s: a^(p-1) != 1", f.Name())
			}
		}
	}
}

func TestDiv(t *testing.T) {
	rng := testReader{rand.New(rand.NewSource(5))}
	f := F128()
	for i := 0; i < 50; i++ {
		a, b := f.Rand(rng), f.RandNonZero(rng)
		q := f.Div(a, b)
		if !f.Equal(f.Mul(q, b), a) {
			t.Fatal("Div: (a/b)*b != a")
		}
	}
}

func TestInvZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Inv(0) did not panic")
		}
	}()
	F128().Inv(F128().Zero())
}

func TestBatchInv(t *testing.T) {
	rng := testReader{rand.New(rand.NewSource(6))}
	for _, f := range allFields() {
		for _, n := range []int{0, 1, 2, 7, 64} {
			src := make([]Element, n)
			for i := range src {
				src[i] = f.RandNonZero(rng)
			}
			dst := make([]Element, n)
			f.BatchInv(dst, src)
			for i := range src {
				if !f.Equal(dst[i], f.Inv(src[i])) {
					t.Fatalf("%s: BatchInv[%d] mismatch (n=%d)", f.Name(), i, n)
				}
			}
		}
	}
}

func TestBatchInvInPlace(t *testing.T) {
	rng := testReader{rand.New(rand.NewSource(7))}
	f := F128()
	src := make([]Element, 16)
	want := make([]Element, 16)
	for i := range src {
		src[i] = f.RandNonZero(rng)
		want[i] = f.Inv(src[i])
	}
	f.BatchInv(src, src)
	for i := range src {
		if !f.Equal(src[i], want[i]) {
			t.Fatalf("in-place BatchInv[%d] mismatch", i)
		}
	}
}

func TestInnerProduct(t *testing.T) {
	rng := testReader{rand.New(rand.NewSource(8))}
	for _, f := range allFields() {
		for _, n := range []int{0, 1, 3, 100, 1000} {
			a := f.RandVector(n, rng)
			b := f.RandVector(n, rng)
			want := f.Zero()
			for i := range a {
				want = f.Add(want, f.Mul(a[i], b[i]))
			}
			if got := f.InnerProduct(a, b); !f.Equal(got, want) {
				t.Fatalf("%s: InnerProduct(n=%d) = %v, want %v", f.Name(), n, f.ToBig(got), f.ToBig(want))
			}
		}
	}
}

func TestInnerProductExtremes(t *testing.T) {
	// All elements p-1 maximizes the accumulated magnitude.
	for _, f := range allFields() {
		n := 4096
		pm1 := f.Neg(f.One())
		a := make([]Element, n)
		for i := range a {
			a[i] = pm1
		}
		got := f.InnerProduct(a, a)
		// (p-1)² · n mod p = n mod p
		want := f.FromUint64(uint64(n))
		if !f.Equal(got, want) {
			t.Errorf("%s: extreme InnerProduct = %v, want %v", f.Name(), f.ToBig(got), f.ToBig(want))
		}
	}
}

func TestAddVec(t *testing.T) {
	rng := testReader{rand.New(rand.NewSource(9))}
	f := F128()
	a := f.RandVector(32, rng)
	b := f.RandVector(32, rng)
	sum := f.AddVec(a, b)
	for i := range sum {
		if !f.Equal(sum[i], f.Add(a[i], b[i])) {
			t.Fatal("AddVec mismatch")
		}
	}
}

// foldReference is AddLinearCombination term by term: one reduced Mul and
// Add per product, in the order the fold it replaced used.
func foldReference(f *Field, dst, coeffs []Element, vecs [][]Element) {
	for i, v := range vecs {
		for j := range dst {
			dst[j] = f.Add(dst[j], f.Mul(coeffs[i], v[j]))
		}
	}
}

// TestAddLinearCombination checks the lazily reduced fold against the
// term-by-term reference on every field, for random operands and for the
// worst case of the accumulator's headroom: 1024 vectors whose entries and
// coefficients are all p-1.
func TestAddLinearCombination(t *testing.T) {
	rng := testReader{rand.New(rand.NewSource(9))}
	for _, f := range allFields() {
		for _, c := range []struct{ mu, n int }{{0, 5}, {1, 1}, {3, 0}, {7, 33}, {64, 16}, {5, 2*foldBlock + 3}} {
			dst := f.RandVector(c.n, rng)
			coeffs := f.RandVector(c.mu, rng)
			vecs := make([][]Element, c.mu)
			for i := range vecs {
				vecs[i] = f.RandVector(c.n, rng)
			}
			want := append([]Element(nil), dst...)
			foldReference(f, want, coeffs, vecs)
			f.AddLinearCombination(dst, coeffs, vecs)
			for j := range dst {
				if dst[j] != want[j] {
					t.Fatalf("%s: fold(µ=%d, n=%d)[%d] = %v, want %v", f.Name(), c.mu, c.n, j, f.ToBig(dst[j]), f.ToBig(want[j]))
				}
			}
		}

		const mu, n = 1024, 3
		pm1 := f.Neg(f.One())
		coeffs := make([]Element, mu)
		vecs := make([][]Element, mu)
		for i := range vecs {
			coeffs[i] = pm1
			vecs[i] = []Element{pm1, pm1, pm1}
		}
		dst := []Element{pm1, f.Zero(), f.One()}
		want := append([]Element(nil), dst...)
		foldReference(f, want, coeffs, vecs)
		f.AddLinearCombination(dst, coeffs, vecs)
		for j := range dst {
			if dst[j] != want[j] {
				t.Fatalf("%s: all-(p-1) fold[%d] = %v, want %v", f.Name(), j, f.ToBig(dst[j]), f.ToBig(want[j]))
			}
		}
		// (p-1)²·µ = µ, added onto p-1, 0 and 1.
		if f.ToBig(dst[1]).Cmp(big.NewInt(mu)) != 0 {
			t.Fatalf("%s: all-(p-1) fold = %v, want %d", f.Name(), f.ToBig(dst[1]), mu)
		}
	}
}

func TestAddLinearCombinationPanicsOnMismatch(t *testing.T) {
	f := FTest()
	for name, fold := range map[string]func(){
		"coefficients": func() { f.AddLinearCombination(make([]Element, 2), make([]Element, 1), nil) },
		"length": func() {
			f.AddLinearCombination(make([]Element, 2), make([]Element, 1), [][]Element{make([]Element, 3)})
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s mismatch did not panic", name)
				}
			}()
			fold()
		}()
	}
}

func TestRandInRange(t *testing.T) {
	rng := testReader{rand.New(rand.NewSource(10))}
	for _, f := range allFields() {
		seen := map[string]bool{}
		for i := 0; i < 64; i++ {
			e := f.Rand(rng)
			v := f.ToBig(e)
			if v.Sign() < 0 || v.Cmp(f.Modulus()) >= 0 {
				t.Fatalf("%s: Rand out of range: %v", f.Name(), v)
			}
			seen[v.String()] = true
		}
		if len(seen) < 32 {
			t.Errorf("%s: Rand looks non-uniform: only %d distinct of 64", f.Name(), len(seen))
		}
	}
}

func TestPow2(t *testing.T) {
	f := F128()
	for k := uint(0); k < 130; k++ {
		want := new(big.Int).Lsh(big.NewInt(1), k)
		want.Mod(want, f.Modulus())
		if f.ToBig(f.Pow2(k)).Cmp(want) != 0 {
			t.Fatalf("Pow2(%d) mismatch", k)
		}
	}
}

func TestNewRejectsBadModuli(t *testing.T) {
	cases := []*big.Int{
		big.NewInt(0), big.NewInt(-7), big.NewInt(4), big.NewInt(1),
		new(big.Int).Lsh(big.NewInt(1), 255), // too large
	}
	for _, p := range cases {
		if _, err := New("bad", p); err == nil {
			t.Errorf("New accepted bad modulus %v", p)
		}
	}
}

func BenchmarkMul(b *testing.B) {
	for _, f := range []*Field{F128(), F220()} {
		b.Run(f.Name(), func(b *testing.B) {
			rng := testReader{rand.New(rand.NewSource(11))}
			x, y := f.Rand(rng), f.Rand(rng)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				x = f.Mul(x, y)
			}
		})
	}
}

func BenchmarkAdd(b *testing.B) {
	f := F128()
	rng := testReader{rand.New(rand.NewSource(12))}
	x, y := f.Rand(rng), f.Rand(rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x = f.Add(x, y)
	}
}

func BenchmarkInv(b *testing.B) {
	for _, f := range []*Field{F128(), F220()} {
		b.Run(f.Name(), func(b *testing.B) {
			rng := testReader{rand.New(rand.NewSource(13))}
			x := f.RandNonZero(rng)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				x = f.Inv(f.Add(x, f.One()))
			}
		})
	}
}

func BenchmarkBatchInv(b *testing.B) {
	// Montgomery's trick vs. one Fermat inversion per element — the delta
	// the poly layer banks on for Lagrange denominators and NTT scalings.
	f := F128()
	rng := testReader{rand.New(rand.NewSource(21))}
	src := make([]Element, 1024)
	for i := range src {
		src[i] = f.RandNonZero(rng)
	}
	dst := make([]Element, len(src))
	b.Run("batch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			f.BatchInv(dst, src)
		}
	})
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j := range src {
				dst[j] = f.Inv(src[j])
			}
		}
	})
}

func BenchmarkInnerProduct(b *testing.B) {
	f := F128()
	rng := testReader{rand.New(rand.NewSource(14))}
	x := f.RandVector(1024, rng)
	y := f.RandVector(1024, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.InnerProduct(x, y)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*1024), "ns/term")
}

// BenchmarkAddLinearCombination folds 504 vectors of 1102 elements into t,
// the shape of apsp.local's π_z decommit.
func BenchmarkAddLinearCombination(b *testing.B) {
	for _, f := range []*Field{F128(), F220()} {
		b.Run(f.Name(), func(b *testing.B) {
			const mu, n = 504, 1102
			rng := testReader{rand.New(rand.NewSource(15))}
			coeffs := f.RandVector(mu, rng)
			vecs := make([][]Element, mu)
			for i := range vecs {
				vecs[i] = f.RandVector(n, rng)
			}
			dst := f.RandVector(n, rng)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.AddLinearCombination(dst, coeffs, vecs)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*mu*n), "ns/term")
		})
	}
}

// TestRandGoldenStream pins Rand, RandVector and RandNonZero to the byte
// stream they consumed before RandVector read in chunks: the elements drawn
// from a fixed prg seed, and where the stream stands afterwards (rejected
// attempts included — FTiny rejects a quarter of them).
func TestRandGoldenStream(t *testing.T) {
	for _, g := range []struct {
		field   string
		first   [3]string // v[0..2] of a 1000-element RandVector
		sum     string    // sha256 over the encoded vector
		rand    string    // the Rand that follows
		nonZero string    // the RandNonZero after that
		next    uint64    // the stream's next 8 bytes
	}{
		{"F128", [3]string{"ead81fb3aba76cac9e5438e358c946e2", "20a8d491ae56bd7bc414ae02b8fc166b", "750153aed5b4a3d6abf91fc6df1b18d1"}, "263d6888882874d5f1ed4f6418dcb970ad1e76e88c67176d01c15d30e62bc2bf", "da3128c38d24daddb5ef3e05258ece0d", "b55be324de648532612f24e7b42a69aa", 0x2d77d7b52536ba55},
		{"F220", [3]string{"ad81fb3aba76cac9e5438e358c946e220a8d491ae56bd7bc414ae02", "8fc166b750153aed5b4a3d6abf91fc6df1b18d186d9e90a9056ce9d", "48db37f4e1509d8304c7434efecf62f82ab235f61283722f0c1cb00"}, "9c24084e8863dd1ca35c43084957657236c6d045a2d3310381901969724013db", "af4153c5cbde5324344bcc75b2fe1f7371b06a888e24e08717e16a1", "99537e07476edeb94342489c6432b34cabb5f8ff0d881b539e83ff2", 0xabc51cdedfceb25a},
		{"FTiny", [3]string{"2ad8", "1fb3", "2ba7"}, "b1f004b490b385e2f0a652f69ad7b75d7bad1bfd3825a6d1348da834b15022eb", "3b7", "1b0e", 0x509d7cae4a90f92d},
		{"FTest", [3]string{"ad81fb3aba76cac", "a8d491ae56bd7b", "414ae02b8fc166b"}, "de3df5afa3ab3a1dab241feba7ff29dcb5976e1505395e9f58faf65378af7a3c", "e1a8152356a2c6d", "6582d752b6e511e", 0x3859cb7ad7143480},
	} {
		var f *Field
		for _, c := range allFields() {
			if c.Name() == g.field {
				f = c
			}
		}
		r := prg.NewFromSeed([]byte("field.Rand golden"), 7)
		v := f.RandVector(1000, r)
		for i, want := range g.first {
			if got := f.ToBig(v[i]).Text(16); got != want {
				t.Errorf("%s: v[%d] = %s, want %s", g.field, i, got, want)
			}
		}
		h := sha256.New()
		for _, e := range v {
			h.Write(AppendElement(nil, e))
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != g.sum {
			t.Errorf("%s: vector digest %s, want %s", g.field, got, g.sum)
		}
		if got := f.ToBig(f.Rand(r)).Text(16); got != g.rand {
			t.Errorf("%s: Rand after the vector = %s, want %s", g.field, got, g.rand)
		}
		if got := f.ToBig(f.RandNonZero(r)).Text(16); got != g.nonZero {
			t.Errorf("%s: RandNonZero = %s, want %s", g.field, got, g.nonZero)
		}
		if got := r.Uint64(); got != g.next {
			t.Errorf("%s: stream stands at %#x, want %#x", g.field, got, g.next)
		}
	}
}

// randReference is one Rand by its byte-level definition, through big.Int:
// ⌈bits/8⌉ bytes as a big-endian integer, the bits above the modulus' bit
// length cleared, accepted when below p.
func randReference(f *Field, r io.Reader) Element {
	buf := make([]byte, (f.Bits()+7)/8)
	mask := new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), uint(f.Bits())), big.NewInt(1))
	for {
		if _, err := io.ReadFull(r, buf); err != nil {
			panic(err)
		}
		v := new(big.Int).SetBytes(buf)
		if v.And(v, mask).Cmp(f.Modulus()) < 0 {
			return f.FromBig(v)
		}
	}
}

// FuzzRandVector checks, on every field, that RandVector(n) draws the
// elements of n successive Rand calls and of the big.Int reference, and
// leaves the stream where they do. The stream is advanced by skip bytes
// first, so attempts straddle ChaCha blocks at every offset, and n crosses
// RandVector's chunk boundaries.
func FuzzRandVector(fz *testing.F) {
	for _, c := range []struct {
		n    uint16
		skip uint8
	}{{0, 0}, {1, 3}, {255, 0}, {256, 17}, {257, 63}, {1000, 5}} {
		fz.Add([]byte("field.RandVector fuzz"), c.n, c.skip)
	}
	fz.Fuzz(func(t *testing.T, seed []byte, n uint16, skip uint8) {
		n %= 1100
		for _, f := range allFields() {
			streams := [3]*prg.ChaCha{}
			for i := range streams {
				streams[i] = prg.NewFromSeed(seed, 0)
				streams[i].Read(make([]byte, skip))
			}
			v := f.RandVector(int(n), streams[0])
			for i := range v {
				if got := f.Rand(streams[1]); got != v[i] {
					t.Fatalf("%s: RandVector(%d)[%d] = %v, Rand gives %v", f.Name(), n, i, f.ToBig(v[i]), f.ToBig(got))
				}
				if want := randReference(f, streams[2]); want != v[i] {
					t.Fatalf("%s: RandVector(%d)[%d] = %v, reference gives %v", f.Name(), n, i, f.ToBig(v[i]), f.ToBig(want))
				}
			}
			a, b, c := streams[0].Uint64(), streams[1].Uint64(), streams[2].Uint64()
			if a != b || a != c {
				t.Fatalf("%s: after %d elements the streams stand at %#x (RandVector), %#x (Rand), %#x (reference)", f.Name(), n, a, b, c)
			}
		}
	})
}

func BenchmarkRandVector(b *testing.B) {
	for _, f := range []*Field{F128(), F220()} {
		b.Run(f.Name(), func(b *testing.B) {
			r := prg.NewFromSeed([]byte("bench"), 0)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				f.RandVector(4096, r)
			}
		})
	}
}

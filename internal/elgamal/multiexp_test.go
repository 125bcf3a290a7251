package elgamal

import (
	"bytes"
	"fmt"
	"io"
	"math/big"
	"sync"
	"testing"

	"zaatar/internal/field"
	"zaatar/internal/obs"
	"zaatar/internal/prg"
)

// subgroupBases returns n pseudorandom elements of the order-Q subgroup
// (powers of the generator — the kernel contract).
func subgroupBases(g *Group, n int, rnd io.Reader) []*big.Int {
	out := make([]*big.Int, n)
	for i := range out {
		e, err := randExponent(g.Q, rnd)
		if err != nil {
			panic(err)
		}
		out[i] = new(big.Int).Exp(g.G, e, g.P)
	}
	return out
}

// multiExpCase builds (bases, exps) for one property-test shape.
func multiExpCase(t *testing.T, g *Group, name string) ([]*big.Int, []*big.Int) {
	t.Helper()
	rnd := prg.NewFromSeed([]byte("multiexp-case-"+name), 7)
	switch name {
	case "empty":
		return nil, nil
	case "single":
		return subgroupBases(g, 1, rnd), []*big.Int{big.NewInt(12345)}
	case "zero-scalars":
		bases := subgroupBases(g, 9, rnd)
		exps := make([]*big.Int, 9)
		for i := range exps {
			exps[i] = big.NewInt(0)
		}
		exps[4] = big.NewInt(77) // one survivor among the skips
		return bases, exps
	case "all-zero":
		bases := subgroupBases(g, 6, rnd)
		exps := make([]*big.Int, 6)
		for i := range exps {
			exps[i] = big.NewInt(0)
		}
		return bases, exps
	case "repeated-bases":
		b := subgroupBases(g, 1, rnd)[0]
		bases := make([]*big.Int, 40)
		exps := make([]*big.Int, 40)
		for i := range bases {
			bases[i] = b
			exps[i] = big.NewInt(int64(3*i + 1))
		}
		return bases, exps
	case "above-order":
		// Exponents at and beyond Q exercise the reduction path; valid
		// because the bases have order Q.
		bases := subgroupBases(g, 5, rnd)
		q := g.Q
		return bases, []*big.Int{
			new(big.Int).Set(q),
			new(big.Int).Add(q, big.NewInt(1)),
			new(big.Int).Mul(q, big.NewInt(3)),
			new(big.Int).Sub(q, big.NewInt(1)),
			new(big.Int).Lsh(q, 130),
		}
	case "straus-size":
		bases := subgroupBases(g, 33, rnd)
		exps := make([]*big.Int, 33)
		for i := range exps {
			e, _ := randExponent(g.Q, rnd)
			exps[i] = e
		}
		return bases, exps
	case "pippenger-size":
		bases := subgroupBases(g, 150, rnd)
		exps := make([]*big.Int, 150)
		for i := range exps {
			e, _ := randExponent(g.Q, rnd)
			exps[i] = e
		}
		return bases, exps
	}
	t.Fatalf("unknown case %q", name)
	return nil, nil
}

// checkKernels runs every multi-exponentiation kernel on (bases, exps) —
// Straus, unsigned and signed Pippenger at their planned widths, and the
// prepared dispatcher at 1, 2, 3 and 8 workers — and fails t unless each
// equals MultiExpNaive. The bases go in as both components of a prepared
// ciphertext vector, which supplies their Montgomery forms and inverses.
func checkKernels(t *testing.T, g *Group, bases, exps []*big.Int) {
	t.Helper()
	want := g.MultiExpNaive(bases, exps)
	n := len(bases)
	cts := make([]Ciphertext, n)
	for i, b := range bases {
		cts[i] = Ciphertext{A: b, B: b}
	}
	pv := g.Prepare(cts)
	k := g.kern()
	tb := k.m.scratch()
	sc := g.reduceScalars(exps)
	check := func(name string, acc []uint64, ok bool) {
		t.Helper()
		got := big.NewInt(1)
		if ok {
			got = k.m.fromMont(acc, tb)
		}
		if got.Cmp(want) != 0 {
			t.Errorf("%s (n=%d) = %v, want %v", name, n, got, want)
		}
	}
	acc, ok := k.straus(pv.mbA, n, &sc, tb)
	check("straus", acc, ok)
	uw, _ := pippengerPlan(n, sc.bits)
	acc, ok = k.pippenger(pv.mbA, n, &sc, uw, tb)
	check("pippenger", acc, ok)
	sw, _ := pippengerSignedPlan(n, sc.bits)
	digits, nwin := sc.signedDigits(sw)
	acc, ok = k.pippengerSigned(pv.mbA, pv.invA, n, digits, nwin, sw, tb)
	check("pippengerSigned", acc, ok)
	for _, workers := range []int{1, 2, 3, 8} {
		acc, ok = k.multiExpPrepared(pv.mbA, pv.invA, n, &sc, workers)
		check(fmt.Sprintf("multiExpPrepared(workers=%d)", workers), acc, ok)
	}
}

func TestMultiExpMatchesNaive(t *testing.T) {
	g, _ := testGroup(t)
	cases := []string{
		"empty", "single", "zero-scalars", "all-zero", "repeated-bases",
		"above-order", "straus-size", "pippenger-size",
	}
	for _, name := range cases {
		t.Run(name, func(t *testing.T) {
			bases, exps := multiExpCase(t, g, name)
			checkKernels(t, g, bases, exps)
		})
	}
}

// fuzzGroup is shared across fuzz iterations; group search is too slow to
// redo per input.
var fuzzGroup = sync.OnceValue(func() *Group {
	f := field.FTiny()
	rnd := prg.NewFromSeed([]byte("multiexp-fuzz-group"), 0)
	g, err := GenerateGroup(f.Modulus(), 256, rnd)
	if err != nil {
		panic(err)
	}
	return g
})

func FuzzMultiExp(f *testing.F) {
	f.Add([]byte{1, 2, 3})
	f.Add([]byte{0})
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	f.Add([]byte("interleaved windows"))
	f.Fuzz(func(t *testing.T, data []byte) {
		g := fuzzGroup()
		// Derive (n, exps) from the fuzz input: each 4-byte chunk is one
		// exponent (so values above Q and zeros occur naturally), bases are
		// seeded subgroup elements.
		n := len(data) / 4
		if n > 96 {
			n = 96
		}
		exps := make([]*big.Int, n)
		for i := range exps {
			exps[i] = new(big.Int).SetBytes(data[i*4 : i*4+4])
		}
		rnd := prg.NewFromSeed(append([]byte("fuzz-bases"), byte(n)), 11)
		bases := subgroupBases(g, n, rnd)
		checkKernels(t, g, bases, exps)
	})
}

func TestFixedBaseTableExp(t *testing.T) {
	g, _ := testGroup(t)
	rnd := prg.NewFromSeed([]byte("fixed-base"), 8)
	tb := g.GeneratorTable()
	exps := []*big.Int{
		big.NewInt(0),
		big.NewInt(1),
		new(big.Int).Sub(g.Q, big.NewInt(1)),
		new(big.Int).Set(g.Q),                // reduces to identity
		new(big.Int).Add(g.Q, big.NewInt(5)), // above the order
		new(big.Int).Lsh(g.Q, 64),
	}
	for i := 0; i < 20; i++ {
		e, _ := randExponent(g.Q, rnd)
		exps = append(exps, e)
	}
	for _, e := range exps {
		want := new(big.Int).Exp(g.G, new(big.Int).Mod(e, g.Q), g.P)
		if got := tb.Exp(e); got.Cmp(want) != 0 {
			t.Errorf("GeneratorTable().Exp(%v) = %v, want %v", e, got, want)
		}
	}
}

// TestGeneratorTableBuiltOnce: concurrent first users of a Group share one
// generator table and build it once; a value-equal Group (as gob delivers
// one) builds its own.
func TestGeneratorTableBuiltOnce(t *testing.T) {
	g, _ := testGroup(t)
	built := obs.Default().Counter(MetricFixedBaseTables)
	before := built.Value()
	tabs := make([]*FixedBaseTable, 8)
	var wg sync.WaitGroup
	for i := range tabs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tabs[i] = g.GeneratorTable()
		}()
	}
	wg.Wait()
	for i, tb := range tabs {
		if tb != tabs[0] {
			t.Fatalf("caller %d got a different table", i)
		}
	}
	if got := built.Value() - before; got != 1 {
		t.Fatalf("%d tables built for one Group, want 1", got)
	}
	twin := &Group{P: g.P, G: g.G, Q: g.Q}
	if twin.GeneratorTable() == tabs[0] {
		t.Fatal("a second Group shares the first one's table")
	}
	e := big.NewInt(4242)
	if twin.GeneratorTable().Exp(e).Cmp(g.GeneratorTable().Exp(e)) != 0 {
		t.Fatal("value-equal Groups disagree")
	}
}

// byteScript replays a fixed byte sequence one Read at a time.
type byteScript struct {
	data []byte
	pos  int
}

func (r *byteScript) Read(p []byte) (int, error) {
	if r.pos >= len(r.data) {
		return 0, io.EOF
	}
	n := copy(p, r.data[r.pos:])
	r.pos += n
	return n, nil
}

func TestRandExponentRejection(t *testing.T) {
	// q = 101: 7 bits, one byte per draw, top bit shifted away. The script
	// forces two rejections — 0xFF → 127 ≥ q, 0x00 → 0 (not in [1, q)) —
	// before an accepting draw: 0x42 → 66 >> 1 = 33.
	q := big.NewInt(101)
	rd := &byteScript{data: []byte{0xFF, 0x00, 0x42}}
	v, err := randExponent(q, rd)
	if err != nil {
		t.Fatal(err)
	}
	if v.Int64() != 33 {
		t.Errorf("randExponent = %v, want 33", v)
	}
	if rd.pos != 3 {
		t.Errorf("consumed %d bytes, want 3 (two rejected draws)", rd.pos)
	}

	// Strictly below q and strictly positive over many seeded draws.
	rnd := prg.NewFromSeed([]byte("rand-exponent-range"), 10)
	for i := 0; i < 2000; i++ {
		v, err := randExponent(q, rnd)
		if err != nil {
			t.Fatal(err)
		}
		if v.Sign() <= 0 || v.Cmp(q) >= 0 {
			t.Fatalf("draw %d out of [1, q): %v", i, v)
		}
	}

	// A source that dries up propagates the read error.
	if _, err := randExponent(q, &byteScript{data: []byte{0xFF}}); err == nil {
		t.Error("exhausted reader did not error")
	}
}

func TestEncryptVectorParallelDeterministic(t *testing.T) {
	g, f := testGroup(t)
	krnd := prg.NewFromSeed([]byte("keys"), 12)
	sk, err := g.GenerateKey(krnd)
	if err != nil {
		t.Fatal(err)
	}
	v := f.RandVector(65, krnd)
	serial, err := sk.EncryptVector(f, v, prg.NewFromSeed([]byte("enc-par"), 13))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 7} {
		par, err := sk.EncryptVectorParallel(f, v, prg.NewFromSeed([]byte("enc-par"), 13), workers)
		if err != nil {
			t.Fatal(err)
		}
		for i := range serial {
			if serial[i].A.Cmp(par[i].A) != 0 || serial[i].B.Cmp(par[i].B) != 0 {
				t.Fatalf("workers=%d: ciphertext %d differs from serial path", workers, i)
			}
		}
	}
}

func TestInnerProductParallelEquivalence(t *testing.T) {
	g, f := testGroup(t)
	rnd := prg.NewFromSeed([]byte("ip-par"), 14)
	sk, err := g.GenerateKey(rnd)
	if err != nil {
		t.Fatal(err)
	}
	n := 130
	m := f.RandVector(n, rnd)
	u := f.RandVector(n, rnd)
	u[0], u[17] = f.Zero(), f.Zero()
	cts, err := sk.EncryptVector(f, m, rnd)
	if err != nil {
		t.Fatal(err)
	}
	want, err := g.InnerProduct(cts, f, u)
	if err != nil {
		t.Fatal(err)
	}
	if sk.DecryptExp(want).Cmp(g.ExpOfField(f, f.InnerProduct(m, u))) != 0 {
		t.Fatal("serial inner product decrypts wrong")
	}
	pv := g.Prepare(cts)
	for _, workers := range []int{2, 3, 16} {
		got, err := g.InnerProductPrepared(pv, f, u, workers)
		if err != nil {
			t.Fatal(err)
		}
		if got.A.Cmp(want.A) != 0 || got.B.Cmp(want.B) != 0 {
			t.Errorf("workers=%d: parallel inner product differs from serial", workers)
		}
	}
}

func TestMontCtxRoundTrip(t *testing.T) {
	g, _ := testGroup(t)
	m := newMontCtx(g.P)
	rnd := prg.NewFromSeed([]byte("mont"), 15)
	t1 := m.scratch()
	a := make([]uint64, m.n)
	b := make([]uint64, m.n)
	for i := 0; i < 200; i++ {
		x, _ := randExponent(g.P, rnd)
		y, _ := randExponent(g.P, rnd)
		m.toMont(a, x, t1)
		m.toMont(b, y, t1)
		m.mul(a, a, b, t1)
		got := m.fromMont(a, t1)
		want := new(big.Int).Mul(x, y)
		want.Mod(want, g.P)
		if got.Cmp(want) != 0 {
			t.Fatalf("mont mul mismatch: %v * %v = %v, want %v", x, y, got, want)
		}
	}
}

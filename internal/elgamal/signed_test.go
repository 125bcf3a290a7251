package elgamal

import (
	"math/big"
	"testing"

	"zaatar/internal/field"
	"zaatar/internal/prg"
)

// TestSignedDigitsRoundTrip checks the decomposition invariants directly:
// Σ d_j·2^(jw) reconstructs the scalar and every digit magnitude is ≤
// 2^(w-1), for the full width range including the single-bucket w=1.
func TestSignedDigitsRoundTrip(t *testing.T) {
	g, f := testGroup(t)
	rnd := prg.NewFromSeed([]byte("signed-digits"), 1)
	exps := []*big.Int{big.NewInt(0), big.NewInt(1), new(big.Int).Sub(g.Q, big.NewInt(1))}
	for i := 0; i < 20; i++ {
		exps = append(exps, f.ToBig(f.Rand(rnd)))
	}
	sc := g.reduceScalars(exps)
	for w := 1; w <= 16; w++ {
		digits, nwin := sc.signedDigits(w)
		half := int64(1) << uint(w-1)
		for i, e := range exps {
			got := new(big.Int)
			tmp := new(big.Int)
			for j := nwin - 1; j >= 0; j-- {
				d := int64(digits[i*nwin+j])
				if d > half || d < -half+1 {
					t.Fatalf("w=%d scalar %d digit %d out of range: %d", w, i, j, d)
				}
				got.Lsh(got, uint(w))
				got.Add(got, tmp.SetInt64(d))
			}
			want := new(big.Int).Mod(e, g.Q)
			if got.Cmp(want) != 0 {
				t.Fatalf("w=%d scalar %d: digits reconstruct %v, want %v", w, i, got, want)
			}
		}
	}
}

// TestPippengerSignedAllWindows drives the signed kernel directly at every
// width — including w=1, where recoding can never go negative and the
// kernel degenerates to one bucket — against the naive product.
func TestPippengerSignedAllWindows(t *testing.T) {
	g, f := testGroup(t)
	rnd := prg.NewFromSeed([]byte("signed-windows"), 2)
	const n = 40
	bases := subgroupBases(g, n, rnd)
	exps := make([]*big.Int, n)
	for i := range exps {
		exps[i] = f.ToBig(f.Rand(rnd))
	}
	exps[0] = big.NewInt(0)
	exps[1] = new(big.Int).Sub(g.Q, big.NewInt(1))
	want := g.MultiExpNaive(bases, exps)

	cts := make([]Ciphertext, n)
	for i, b := range bases {
		cts[i] = Ciphertext{A: b, B: b}
	}
	pv := g.Prepare(cts)
	k := g.kern()
	tb := k.m.scratch()
	sc := g.reduceScalars(exps)
	for w := 1; w <= 12; w++ {
		digits, nwin := sc.signedDigits(w)
		acc, ok := k.pippengerSigned(pv.mbA, pv.invA, n, digits, nwin, w, tb)
		if !ok {
			t.Fatalf("w=%d: signed kernel returned identity", w)
		}
		if got := k.m.fromMont(acc, tb); got.Cmp(want) != 0 {
			t.Fatalf("w=%d: signed kernel = %v, want %v", w, got, want)
		}
	}
}

// TestSignedMatchesUnsigned is the property test of the recoding: the
// signed and unsigned Pippenger variants (and the other kernels) must agree
// with the naive product on random inputs across sizes spanning the Straus
// crossover.
func TestSignedMatchesUnsigned(t *testing.T) {
	g, f := testGroup(t)
	rnd := prg.NewFromSeed([]byte("signed-vs-unsigned"), 3)
	for _, n := range []int{1, 2, 65, 200} {
		bases := subgroupBases(g, n, rnd)
		exps := make([]*big.Int, n)
		for i := range exps {
			exps[i] = f.ToBig(f.Rand(rnd))
		}
		checkKernels(t, g, bases, exps)
	}
}

// TestBatchInv checks Montgomery's trick against per-element ModInverse.
func TestBatchInv(t *testing.T) {
	g, _ := testGroup(t)
	rnd := prg.NewFromSeed([]byte("batch-inv"), 4)
	k := g.kern()
	tb := k.m.scratch()
	for _, n := range []int{1, 2, 7, 33} {
		bases := subgroupBases(g, n, rnd)
		mn := k.m.n
		mb := make([]uint64, n*mn)
		for i, b := range bases {
			k.m.toMont(mb[i*mn:(i+1)*mn], b, tb)
		}
		inv := make([]uint64, len(mb))
		k.m.batchInv(inv, mb, tb)
		for i := 0; i < n; i++ {
			got := k.m.fromMont(inv[i*mn:(i+1)*mn], tb)
			want := new(big.Int).ModInverse(bases[i], g.P)
			if got.Cmp(want) != 0 {
				t.Fatalf("n=%d element %d: batchInv %v, want %v", n, i, got, want)
			}
		}
	}
}

// TestInnerProductPrepared checks the prepared path against the
// homomorphic fold Π Add(ScalarMul(ct_i, u_i)) — including zero weights,
// which Prepare keeps in place — for every worker count.
func TestInnerProductPrepared(t *testing.T) {
	g, f := testGroup(t)
	rnd := prg.NewFromSeed([]byte("prepared-ip"), 5)
	sk, err := g.GenerateKey(rnd)
	if err != nil {
		t.Fatal(err)
	}
	const n = 90
	m := f.RandVector(n, rnd)
	cts, err := sk.EncryptVector(f, m, rnd)
	if err != nil {
		t.Fatal(err)
	}
	u := f.RandVector(n, rnd)
	u[0] = f.Zero()
	u[n/2] = f.Zero()
	want := g.One()
	for i := range cts {
		want = g.Add(want, g.ScalarMul(cts[i], f, u[i]))
	}
	pv := g.Prepare(cts)
	if pv.n != n {
		t.Fatalf("Prepare: n = %d, want %d", pv.n, n)
	}
	for _, workers := range []int{1, 2, 3, 8} {
		got, err := g.InnerProductPrepared(pv, f, u, workers)
		if err != nil {
			t.Fatal(err)
		}
		if got.A.Cmp(want.A) != 0 || got.B.Cmp(want.B) != 0 {
			t.Fatalf("workers=%d: prepared inner product diverges", workers)
		}
	}

	// All-zero weights must hit the identity path.
	zero := make([]field.Element, n)
	for i := range zero {
		zero[i] = f.Zero()
	}
	got, err := g.InnerProductPrepared(pv, f, zero, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got.A.Cmp(big.NewInt(1)) != 0 || got.B.Cmp(big.NewInt(1)) != 0 {
		t.Fatalf("all-zero weights: got %v,%v, want identity", got.A, got.B)
	}

	// Misuse must error, not corrupt.
	if _, err := g.InnerProductPrepared(pv, f, u[:n-1], 1); err == nil {
		t.Fatal("length mismatch accepted")
	}
	g2, _ := testGroup(t)
	if _, err := g2.InnerProductPrepared(pv, f, u, 1); err == nil {
		t.Fatal("foreign group accepted")
	}
}

package field

import (
	"bytes"
	"math/big"
	"math/rand"
	"testing"
)

// edgeBytes is the boundary corpus of TestMulExhaustiveEdges in byte form:
// 0, 1, p-1, p-2, and all-ones limbs, the values where carry handling in the
// CIOS loops matters most. It seeds FuzzFieldMul.
func edgeBytes(f *Field) [][]byte {
	p := f.Modulus()
	vals := []*big.Int{
		big.NewInt(0), big.NewInt(1), big.NewInt(2),
		new(big.Int).Sub(p, big.NewInt(1)),
		new(big.Int).Sub(p, big.NewInt(2)),
		new(big.Int).Rsh(p, 1),
	}
	out := make([][]byte, 0, len(vals)+1)
	for _, v := range vals {
		buf := make([]byte, Limbs*8)
		v.FillBytes(buf)
		out = append(out, buf)
	}
	out = append(out, bytes.Repeat([]byte{0xff}, Limbs*8))
	return out
}

// elementFromBytes interprets 32 big-endian bytes as an integer, reduces it
// mod p, and converts to Montgomery form via the generic path only (so the
// fixed-limb lane under test is not used to build its own inputs).
func elementFromBytes(f *Field, b []byte) (Element, *big.Int) {
	v := new(big.Int).SetBytes(b)
	v.Mod(v, f.pBig)
	var raw Element
	copyLimbs((*[Limbs]uint64)(&raw), v)
	return f.mulGeneric(raw, f.r2), v
}

// FuzzFieldMul differentially fuzzes the multiplication lanes: the
// dispatched Mul (the two-limb lane on fields below 2^128 when both operands
// fit, else the unrolled four-limb kernel, unless built with -tags purego),
// the forced four-limb kernel, the generic CIOS loop and a big.Int reference
// — plus the lazy-domain product, which must agree after one exact
// reduction. It then builds short vectors from the two operands, including
// lazy-domain entries in [p, 2p) that fail the two-limb guard on F128, and
// checks InnerProduct and AddLinearCombination against big.Int and against
// the four-limb accumulator. Any divergence is a soundness bug in the
// specialized kernels.
func FuzzFieldMul(fz *testing.F) {
	fields := allFields()
	for _, f := range fields {
		for _, e := range edgeBytes(f) {
			fz.Add(e, e)
			fz.Add(e, []byte{1})
		}
	}
	fz.Fuzz(func(t *testing.T, ab, bb []byte) {
		if len(ab) > Limbs*8 || len(bb) > Limbs*8 {
			return
		}
		for _, f := range fields {
			a, av := elementFromBytes(f, ab)
			b, bv := elementFromBytes(f, bb)

			want := new(big.Int).Mul(av, bv)
			want.Mod(want, f.pBig)

			got := f.Mul(a, b)
			if f.ToBig(got).Cmp(want) != 0 {
				t.Fatalf("%s: dispatched Mul diverges from big.Int: %v·%v got %v want %v",
					f.Name(), av, bv, f.ToBig(got), want)
			}
			gen := f.mulGeneric(a, b)
			if gen != got {
				t.Fatalf("%s: generic CIOS diverges from dispatched Mul: %v·%v", f.Name(), av, bv)
			}
			if hasFixedLimb && f.reduceOnce(mulUnrolled4(&f.p, f.inv, a, b)) != got {
				t.Fatalf("%s: four-limb kernel diverges from dispatched Mul: %v·%v", f.Name(), av, bv)
			}
			lazy := f.Reduce(f.MulLazy(a, b))
			if lazy != got {
				t.Fatalf("%s: lazy product diverges after reduction: %v·%v", f.Name(), av, bv)
			}
			checkVectorKernels(t, f, a, b)
		}
	})
}

// checkVectorKernels runs InnerProduct and AddLinearCombination over vectors
// built from a and b and compares them with big.Int and with the four-limb
// accumulator (mulAcc) called directly.
func checkVectorKernels(t *testing.T, f *Field, a, b Element) {
	t.Helper()
	one, pm1 := f.One(), f.Neg(f.One())
	xs := []Element{a, b, a, f.AddLazy(a, rawP(f)), f.Neg(a), b, one, pm1, f.Zero()}
	ys := []Element{b, a, a, b, b, f.AddLazy(b, rawP(f)), pm1, pm1, a}

	if got, want := f.InnerProduct(xs, ys), fourLimbDot(f, xs, ys); got != want {
		t.Fatalf("%s: InnerProduct diverges from the four-limb accumulator: %v vs %v", f.Name(), valueOf(f, got), valueOf(f, want))
	}
	if got, want := valueOf(f, f.InnerProduct(xs, ys)), bigDot(f, xs, ys); got.Cmp(want) != 0 {
		t.Fatalf("%s: InnerProduct diverges from big.Int: %v vs %v", f.Name(), got, want)
	}

	// Fold len(ys) rotations of xs into the canonical xs.
	vecs := make([][]Element, len(ys))
	dst := make([]Element, len(xs))
	for i := range vecs {
		vecs[i] = append(append([]Element(nil), xs[i:]...), xs[:i]...)
		dst[i] = f.Reduce(xs[i])
	}
	f.AddLinearCombination(dst, ys, vecs)
	col := make([]Element, len(vecs))
	for j := range dst {
		for i, v := range vecs {
			col[i] = v[j]
		}
		if want := f.Add(f.Reduce(xs[j]), fourLimbDot(f, ys, col)); dst[j] != want {
			t.Fatalf("%s: fold[%d] diverges from the four-limb accumulator", f.Name(), j)
		}
		want := bigDot(f, ys, col)
		want.Add(want, valueOf(f, xs[j])).Mod(want, f.pBig)
		if valueOf(f, dst[j]).Cmp(want) != 0 {
			t.Fatalf("%s: fold[%d] diverges from big.Int", f.Name(), j)
		}
	}
}

// fourLimbDot is InnerProduct forced onto the four-limb accumulator.
func fourLimbDot(f *Field, a, b []Element) Element {
	var acc [9]uint64
	for i := range a {
		mulAcc(&acc, a[i], b[i])
	}
	return f.reduceWide(acc)
}

// bigDot is Σ a[i]·b[i] mod p in big.Int.
func bigDot(f *Field, a, b []Element) *big.Int {
	sum := new(big.Int)
	for i := range a {
		sum.Add(sum, new(big.Int).Mul(valueOf(f, a[i]), valueOf(f, b[i])))
	}
	return sum.Mod(sum, f.pBig)
}

// valueOf returns the residue a lazy-domain element represents, converting
// through the generic CIOS loop only, so the lanes under test do not check
// themselves.
func valueOf(f *Field, e Element) *big.Int {
	c := f.mulGeneric(f.Reduce(e), Element{1})
	buf := make([]byte, Limbs*8)
	for i := 0; i < Limbs; i++ {
		putBE(buf[(Limbs-1-i)*8:], c[i])
	}
	return new(big.Int).SetBytes(buf)
}

// TestLazyDomainOps checks the lazy-domain contract directly: operands in
// [0, 2p) stay in [0, 2p) through MulLazy/AddLazy/SubLazy, and Reduce maps
// every result to the canonical representative.
func TestLazyDomainOps(t *testing.T) {
	rng := testReader{rand.New(rand.NewSource(7))}
	for _, f := range allFields() {
		p := f.Modulus()
		p2 := new(big.Int).Lsh(p, 1)
		inLazy := func(e Element) bool {
			// Lift the raw limbs (Montgomery form is irrelevant to the
			// range check — the domain bound is on the representation).
			v := new(big.Int)
			buf := make([]byte, Limbs*8)
			for i := 0; i < Limbs; i++ {
				putBE(buf[(Limbs-1-i)*8:], e[i])
			}
			return v.SetBytes(buf).Cmp(p2) < 0
		}
		for i := 0; i < 300; i++ {
			a, b := f.Rand(rng), f.Rand(rng)
			// Push operands into the upper lazy range [p, 2p) half the time.
			if i%2 == 1 {
				a = f.AddLazy(a, rawP(f))
			}
			la := f.MulLazy(a, b)
			if !inLazy(la) {
				t.Fatalf("%s: MulLazy left the lazy domain", f.Name())
			}
			if f.Reduce(la) != f.Mul(f.Reduce(a), b) {
				t.Fatalf("%s: MulLazy ≠ Mul after reduction", f.Name())
			}
			s := f.AddLazy(a, b)
			if !inLazy(s) {
				t.Fatalf("%s: AddLazy left the lazy domain", f.Name())
			}
			if f.Reduce(s) != f.Add(f.Reduce(a), b) {
				t.Fatalf("%s: AddLazy ≠ Add after reduction", f.Name())
			}
			d := f.SubLazy(a, b)
			if !inLazy(d) {
				t.Fatalf("%s: SubLazy left the lazy domain", f.Name())
			}
			if f.Reduce(d) != f.Sub(f.Reduce(a), b) {
				t.Fatalf("%s: SubLazy ≠ Sub after reduction", f.Name())
			}
		}
	}
}

// rawP returns the modulus itself as raw limbs: AddLazy-ing it onto a
// canonical element shifts the representation into [p, 2p) without changing
// the residue, exercising the upper half of the lazy domain.
func rawP(f *Field) Element {
	return Element{f.p[0], f.p[1], f.p[2], f.p[3]}
}

// TestMulPathDispatch pins the construction-time dispatch: in a default
// build every Field selects the fixed-limb path and the fields below 2^128
// (F128, FTest, FTiny) also take the two-limb lane; F220 does not. Under
// -tags purego none do either.
func TestMulPathDispatch(t *testing.T) {
	for _, c := range []struct {
		f       *Field
		twoLimb bool
	}{{F128(), true}, {F220(), false}, {FTiny(), true}, {FTest(), true}} {
		if c.f.fixed != hasFixedLimb {
			t.Fatalf("%s: fixed=%v, want %v", c.f.Name(), c.f.fixed, hasFixedLimb)
		}
		if want := c.twoLimb && hasFixedLimb; c.f.twoLimb != want {
			t.Fatalf("%s: twoLimb=%v, want %v", c.f.Name(), c.f.twoLimb, want)
		}
	}
}

// TestTwoLimbGuard multiplies F128 operands whose representation lies in
// [2^128, 2p): the lazy-domain form AddLazy(a, p) of a canonical a. Their
// upper limbs are nonzero, so Mul's per-call guard must route them to the
// four-limb kernel, and MulLazy (always four-limb) must agree after
// reduction.
func TestTwoLimbGuard(t *testing.T) {
	f := F128()
	rng := testReader{rand.New(rand.NewSource(24))}
	hits := 0
	for i := 0; i < 500; i++ {
		a, b := f.Rand(rng), f.Rand(rng)
		la := f.AddLazy(a, rawP(f))
		if la[2] == 0 {
			continue // the representation a + p is still below 2^128
		}
		hits++
		want := f.Mul(a, b)
		if f.Mul(la, b) != want || f.Mul(b, la) != want || f.Reduce(f.MulLazy(la, b)) != want {
			t.Fatalf("lazy-domain operand: %v·%v diverges from its canonical product", f.ToBig(a), f.ToBig(b))
		}
		if f.Mul(la, la) != f.Mul(a, a) || f.Reduce(f.MulLazy(la, la)) != f.Mul(a, a) {
			t.Fatalf("lazy-domain square of %v diverges from its canonical square", f.ToBig(a))
		}
	}
	if hits < 100 {
		t.Fatalf("only %d of 500 operands reached [2^128, 2p)", hits)
	}
}

// TestTwoLimbKernelTopOfRange drives mulUnrolled2 with raw operands just
// below 2^128, the only place its REDC steps carry into the fourth word (a
// canonical F128 product never gets there), against the generic loop.
func TestTwoLimbKernelTopOfRange(t *testing.T) {
	if !hasFixedLimb {
		t.Skip("no two-limb lane under -tags purego")
	}
	top := []Element{{^uint64(0), ^uint64(0)}, {0, ^uint64(0)}, {1, ^uint64(0)}, {^uint64(0), 1 << 63}}
	for _, f := range []*Field{F128(), FTest(), FTiny()} {
		for _, a := range top {
			for _, b := range append(top, Element{1}, Element{2}, f.r2) {
				if got, want := f.reduceOnce(mulUnrolled2(&f.p, f.inv, a, b)), f.mulGeneric(a, b); got != want {
					t.Fatalf("%s: two-limb %x·%x = %x, generic %x", f.Name(), a, b, got, want)
				}
			}
		}
	}
}

// TestToMont2Edges checks the two-limb Montgomery conversion of RandVector
// against the generic product with R² on the residues where its final
// subtraction and its third word matter: 0, 1, 2, p/2 and p−1, p−2.
func TestToMont2Edges(t *testing.T) {
	if !hasFixedLimb {
		t.Skip("no two-limb lane under -tags purego")
	}
	for _, f := range []*Field{F128(), FTest(), FTiny()} {
		p := f.Modulus()
		for _, v := range []*big.Int{big.NewInt(0), big.NewInt(1), big.NewInt(2), new(big.Int).Rsh(p, 1),
			new(big.Int).Sub(p, big.NewInt(1)), new(big.Int).Sub(p, big.NewInt(2))} {
			var x Element
			copyLimbs((*[Limbs]uint64)(&x), v)
			if got, want := toMont2(&f.p, f.inv, &x, &f.r384), f.mulGeneric(x, f.r2); got != want {
				t.Fatalf("%s: toMont2(%v) = %x, want %x", f.Name(), v, got, want)
			}
		}
	}
}

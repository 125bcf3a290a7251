//go:build !purego

package field

import "math/bits"

// hasFixedLimb reports whether this build carries the unrolled fixed-limb
// Montgomery multiplication path. New() consults it exactly once per Field,
// so a `-tags purego` build exercises the generic CIOS loop everywhere (the
// CI fallback job builds and tests with that tag).
const hasFixedLimb = true

// madd1 returns a·b + c as (hi, lo); it cannot overflow 128 bits.
func madd1(a, b, c uint64) (hi, lo uint64) {
	hi, lo = bits.Mul64(a, b)
	var carry uint64
	lo, carry = bits.Add64(lo, c, 0)
	hi, _ = bits.Add64(hi, 0, carry)
	return
}

// mulUnrolled4 is the fully unrolled 4-limb CIOS Montgomery product with the
// final conditional subtraction left to the caller: the result is < 2p.
//
// Correctness of the truncated return relies on the construction-time bound
// p < 2^254: for operands a, b < 2p the CIOS accumulator ends below
// (4p² + p·2^256)/2^256 < 2p < 2^255, so the fifth working word is always
// zero and the product fits the four returned limbs. This is also what makes
// the value a legal input to another lazy multiplication — the NTT
// butterflies (internal/poly) stay in the [0, 2p) domain across whole
// transform levels and reduce once at the end.
func mulUnrolled4(p *[Limbs]uint64, inv uint64, a, b Element) Element {
	var t0, t1, t2, t3, t4 uint64
	var c, cr uint64

	// --- i = 0: t = a·b[0] (accumulator starts at zero) ---
	b0 := b[0]
	c, t0 = bits.Mul64(a[0], b0)
	c, t1 = madd1(a[1], b0, c)
	c, t2 = madd1(a[2], b0, c)
	t4, t3 = madd1(a[3], b0, c)
	m := t0 * inv
	c, _ = madd2(m, p[0], t0, 0)
	c, t0 = madd2(m, p[1], t1, c)
	c, t1 = madd2(m, p[2], t2, c)
	c, t2 = madd2(m, p[3], t3, c)
	t3, cr = bits.Add64(t4, c, 0)
	t4 = cr

	// --- i = 1..3: t += a·b[i], then one Montgomery reduction step ---
	b1 := b[1]
	c, t0 = madd2(a[0], b1, t0, 0)
	c, t1 = madd2(a[1], b1, t1, c)
	c, t2 = madd2(a[2], b1, t2, c)
	c, t3 = madd2(a[3], b1, t3, c)
	t4, _ = bits.Add64(t4, c, 0)
	m = t0 * inv
	c, _ = madd2(m, p[0], t0, 0)
	c, t0 = madd2(m, p[1], t1, c)
	c, t1 = madd2(m, p[2], t2, c)
	c, t2 = madd2(m, p[3], t3, c)
	t3, cr = bits.Add64(t4, c, 0)
	t4 = cr

	b2 := b[2]
	c, t0 = madd2(a[0], b2, t0, 0)
	c, t1 = madd2(a[1], b2, t1, c)
	c, t2 = madd2(a[2], b2, t2, c)
	c, t3 = madd2(a[3], b2, t3, c)
	t4, _ = bits.Add64(t4, c, 0)
	m = t0 * inv
	c, _ = madd2(m, p[0], t0, 0)
	c, t0 = madd2(m, p[1], t1, c)
	c, t1 = madd2(m, p[2], t2, c)
	c, t2 = madd2(m, p[3], t3, c)
	t3, cr = bits.Add64(t4, c, 0)
	t4 = cr

	b3 := b[3]
	c, t0 = madd2(a[0], b3, t0, 0)
	c, t1 = madd2(a[1], b3, t1, c)
	c, t2 = madd2(a[2], b3, t2, c)
	c, t3 = madd2(a[3], b3, t3, c)
	t4, _ = bits.Add64(t4, c, 0)
	m = t0 * inv
	c, _ = madd2(m, p[0], t0, 0)
	c, t0 = madd2(m, p[1], t1, c)
	c, t1 = madd2(m, p[2], t2, c)
	c, t2 = madd2(m, p[3], t3, c)
	t3, _ = bits.Add64(t4, c, 0)

	return Element{t0, t1, t2, t3}
}

// mulUnrolled2 is the Montgomery product on the two-limb lane: p < 2^128 and
// a, b < 2^128 (upper limbs zero, which Mul checks per call). R is still
// 2^256, so the 2×2 product takes four one-word REDC steps, the same
// m = t0·inv sequence as mulUnrolled4, against the two limbs of p. The result
// (a·b + M·p)/2^256 < (2^256 + 2^256·p)/2^256 = p + 1 fits two limbs and
// needs the caller's one conditional subtraction.
func mulUnrolled2(p *[Limbs]uint64, inv uint64, a, b Element) Element {
	var t [9]uint64 // the product is mulAcc2 onto zero
	mulAcc2(&t, &a, &b)
	t0, t1, t2, t3 := t[0], t[1], t[2], t[3]
	p0, p1 := p[0], p[1]
	var c uint64
	for i := 0; i < Limbs; i++ {
		m := t0 * inv
		c, _ = madd2(m, p0, t0, 0)
		c, t0 = madd2(m, p1, t1, c)
		t1, c = bits.Add64(t2, c, 0)
		t2, c = bits.Add64(t3, 0, c)
		t3 = c
	}
	return Element{t0, t1}
}

// toMont2 is the Montgomery conversion x·R mod p on the two-limb lane, for a
// canonical residue x (upper limbs zero) and c = 2^384 mod p: the 2×2
// product x·c and two one-word REDC steps give x·2^384·2^-128 = x·R, half
// the REDC steps of mulUnrolled2(x, R² mod p). The intermediate is below
// (p² + 2^128·p)/2^128 < 2p, which may need a third word, so the one
// conditional subtraction happens here and the result is canonical.
func toMont2(p *[Limbs]uint64, inv uint64, x, c *Element) Element {
	h00, t0 := bits.Mul64(x[0], c[0])
	h01, l01 := bits.Mul64(x[0], c[1])
	h10, l10 := bits.Mul64(x[1], c[0])
	h11, l11 := bits.Mul64(x[1], c[1])
	var cy uint64
	t1, cy := bits.Add64(h00, l01, 0)
	t2, cy := bits.Add64(h01, l11, cy)
	t3 := h11 + cy
	t1, cy = bits.Add64(t1, l10, 0)
	t2, cy = bits.Add64(t2, h10, cy)
	t3 += cy
	p0, p1 := p[0], p[1]
	for i := 0; i < 2; i++ {
		m := t0 * inv
		cy, _ = madd2(m, p0, t0, 0)
		cy, t0 = madd2(m, p1, t1, cy)
		t1, cy = bits.Add64(t2, cy, 0)
		t2, t3 = bits.Add64(t3, 0, cy)
	}
	r0, b := bits.Sub64(t0, p0, 0)
	r1, b := bits.Sub64(t1, p1, b)
	_, b = bits.Sub64(t2, 0, b)
	if b != 0 {
		return Element{t0, t1}
	}
	return Element{r0, r1}
}

// mulAcc2 adds the 256-bit product of two two-limb operands into acc. On a
// two-limb field every term is below (2p)² < 2^258, even for lazy-domain
// operands that took mulAcc instead, so fewer than 2^62 terms fit acc[0..4]
// and the upper words stay zero: the carry stops at acc[4].
func mulAcc2(acc *[9]uint64, a, b *Element) {
	h00, t0 := bits.Mul64(a[0], b[0])
	h01, l01 := bits.Mul64(a[0], b[1])
	h10, l10 := bits.Mul64(a[1], b[0])
	h11, l11 := bits.Mul64(a[1], b[1])
	var c uint64
	t1, c := bits.Add64(h00, l01, 0)
	t2, c := bits.Add64(h01, l11, c)
	t3 := h11 + c
	t1, c = bits.Add64(t1, l10, 0)
	t2, c = bits.Add64(t2, h10, c)
	t3 += c
	acc[0], c = bits.Add64(acc[0], t0, 0)
	acc[1], c = bits.Add64(acc[1], t1, c)
	acc[2], c = bits.Add64(acc[2], t2, c)
	acc[3], c = bits.Add64(acc[3], t3, c)
	acc[4] += c
}

// Package field implements arithmetic in prime fields F_p for odd moduli of
// up to 254 bits, using 4×64-bit Montgomery representation.
//
// Every protocol in this repository — the QAP construction, both linear PCPs,
// the linear commitment, and the cost model of Figure 3 — computes over one
// of two production fields mirroring §5.1 of the paper: a 128-bit field and a
// 220-bit field. Both moduli are NTT-friendly (p ≡ 1 mod 2^32) so the prover
// can use radix-2 number-theoretic transforms when computing the coefficients
// of H(t) = P_w(t)/D(t).
//
// A Field value owns the modulus and all precomputed Montgomery and NTT
// constants; Element values are meaningless without the Field that produced
// them. Elements are always kept in Montgomery form, with R = 2^256 for
// every modulus.
//
// Multiplication is dispatched once, at construction: the unrolled
// four-limb kernel (mulfixed.go) or, under -tags purego, the generic CIOS
// loop. Moduli below 2^128 (F128 and the test fields) additionally take a
// two-limb lane wherever both operands' upper limbs are zero — a 2×2 product
// and four one-word REDC steps in Mul, a 2×2 product in the lazily reduced
// accumulations of InnerProduct and AddLinearCombination. R stays 2^256 on
// that lane because Elements are serialized as their Montgomery limbs
// (codec.go): a different R would change the wire and store formats.
package field

import (
	"fmt"
	"math/big"
	"math/bits"

	"zaatar/internal/obs"
)

// Limbs is the number of 64-bit limbs in an Element.
const Limbs = 4

// Field constructions record which multiplication path they selected into
// the process-wide registry ("field.mul.*" in docs/PROTOCOL.md §5.1), so a
// deployment can tell at a glance whether it is running the specialized
// kernels or the purego fallback.
const (
	// MetricMulFixed counts Fields dispatched to the unrolled fixed-limb
	// Montgomery multiply.
	MetricMulFixed = "field.mul.fixed"
	// MetricMulGeneric counts Fields dispatched to the generic CIOS loop.
	MetricMulGeneric = "field.mul.generic"
)

func metricMulPath() string {
	if hasFixedLimb {
		return MetricMulFixed
	}
	return MetricMulGeneric
}

// Element is a field element in Montgomery form: the value it represents is
// (e[0] + e[1]·2^64 + e[2]·2^128 + e[3]·2^192) · R⁻¹ mod p, with R = 2^256.
// Limbs are little-endian. The zero value represents the field element 0.
type Element [Limbs]uint64

// Field holds a prime modulus and the constants needed for Montgomery and
// NTT arithmetic. Construct with New; a Field is immutable after creation
// and safe for concurrent use.
type Field struct {
	name string
	p    [Limbs]uint64 // modulus, little-endian limbs
	pBig *big.Int
	bits int // bit length of p

	inv uint64        // -p⁻¹ mod 2^64, for Montgomery reduction
	r   Element       // R mod p: the Montgomery form of 1
	r2  Element       // R² mod p: used to convert into Montgomery form
	p2  [Limbs]uint64 // 2p, the lazy-domain modulus (p < 2^254, so it fits)
	// r384 is 2^384 mod p, the two-limb lane's conversion constant (toMont2).
	r384 Element

	// fixed selects the unrolled fixed-limb Montgomery multiply. It is
	// decided exactly once, at construction, so builds without the
	// specialization (-tags purego) and future generic widths keep working
	// through the loop CIOS with no per-call feature probing.
	fixed bool
	// twoLimb selects the two-limb lane (mulUnrolled2, mulAcc2) for moduli
	// below 2^128, decided next to fixed and only where fixed holds. Each
	// call still checks that both operands' upper limbs are zero, so a
	// lazy-domain operand in [2^128, 2p) takes the four-limb kernel.
	twoLimb bool

	rand randLayout // how Rand and RandVector parse an attempt's bytes

	twoAdicity  uint    // s where p-1 = odd·2^s
	rootOfUnity Element // a primitive 2^s-th root of unity (Montgomery form)

	halfP *big.Int // (p-1)/2, used by SignedBig
}

// New constructs the field F_p for the given odd prime modulus. It verifies
// only that p is odd and ≥ 3 and fits in 254 bits; callers are responsible
// for primality (the production parameters carry tests that check it).
func New(name string, p *big.Int) (*Field, error) {
	if p.Sign() <= 0 || p.Bit(0) == 0 || p.BitLen() < 2 {
		return nil, fmt.Errorf("field: modulus must be an odd prime ≥ 3, got %v", p)
	}
	if p.BitLen() > 254 {
		return nil, fmt.Errorf("field: modulus too large (%d bits, max 254)", p.BitLen())
	}
	f := &Field{
		name: name,
		pBig: new(big.Int).Set(p),
		bits: p.BitLen(),
	}
	copyLimbs(&f.p, p)

	// inv = -p⁻¹ mod 2^64 by Newton iteration: x_{k+1} = x_k(2 - p·x_k).
	x := f.p[0] // p is odd so p ≡ p⁻¹ mod 2
	for i := 0; i < 5; i++ {
		x *= 2 - f.p[0]*x
	}
	f.inv = -x

	r := new(big.Int).Lsh(big.NewInt(1), 64*Limbs)
	r.Mod(r, p)
	copyLimbs((*[Limbs]uint64)(&f.r), r)
	r2 := new(big.Int).Lsh(big.NewInt(1), 2*64*Limbs)
	r2.Mod(r2, p)
	copyLimbs((*[Limbs]uint64)(&f.r2), r2)
	copyLimbs(&f.p2, new(big.Int).Lsh(p, 1))
	r384 := new(big.Int).Lsh(big.NewInt(1), 384)
	copyLimbs((*[Limbs]uint64)(&f.r384), r384.Mod(r384, p))
	f.fixed = hasFixedLimb
	f.twoLimb = hasFixedLimb && f.bits <= 128
	f.rand = newRandLayout(f.bits)
	obs.Default().Counter(metricMulPath()).Inc()

	pm1 := new(big.Int).Sub(p, big.NewInt(1))
	f.halfP = new(big.Int).Rsh(pm1, 1)
	f.twoAdicity = uint(trailingZeros(pm1))
	f.rootOfUnity = f.findRootOfUnity()
	return f, nil
}

// MustNew is New for compiled-in parameters; it panics on error.
func MustNew(name string, p *big.Int) *Field {
	f, err := New(name, p)
	if err != nil {
		panic(err)
	}
	return f
}

func copyLimbs(dst *[Limbs]uint64, v *big.Int) {
	var buf [Limbs * 8]byte
	v.FillBytes(buf[:])
	for i := 0; i < Limbs; i++ {
		dst[i] = beUint64(buf[(Limbs-1-i)*8:])
	}
}

func beUint64(b []byte) uint64 {
	return uint64(b[7]) | uint64(b[6])<<8 | uint64(b[5])<<16 | uint64(b[4])<<24 |
		uint64(b[3])<<32 | uint64(b[2])<<40 | uint64(b[1])<<48 | uint64(b[0])<<56
}

func trailingZeros(v *big.Int) int {
	n := 0
	for v.Bit(n) == 0 {
		n++
	}
	return n
}

// findRootOfUnity returns a primitive 2^s-th root of unity where s is the
// field's 2-adicity. For any x, u = x^odd has order dividing 2^s; u is
// primitive iff u^(2^(s-1)) ≠ 1, which holds for half of all x.
func (f *Field) findRootOfUnity() Element {
	if f.twoAdicity == 0 {
		return f.One()
	}
	odd := new(big.Int).Rsh(new(big.Int).Sub(f.pBig, big.NewInt(1)), f.twoAdicity)
	for x := uint64(2); ; x++ {
		u := f.Exp(f.FromUint64(x), odd)
		// v = u^(2^(s-1))
		v := u
		for i := uint(0); i < f.twoAdicity-1; i++ {
			v = f.Mul(v, v)
		}
		if !f.IsOne(v) {
			return u
		}
	}
}

// Name returns the field's human-readable name (e.g. "F128").
func (f *Field) Name() string { return f.name }

// Bits returns the bit length of the modulus.
func (f *Field) Bits() int { return f.bits }

// Modulus returns a copy of the prime modulus.
func (f *Field) Modulus() *big.Int { return new(big.Int).Set(f.pBig) }

// TwoAdicity returns s where p-1 = odd·2^s; radix-2 NTTs exist for all sizes
// up to 2^s.
func (f *Field) TwoAdicity() uint { return f.twoAdicity }

// Zero returns the field element 0.
func (f *Field) Zero() Element { return Element{} }

// One returns the field element 1.
func (f *Field) One() Element { return f.r }

// IsZero reports whether a is 0.
func (f *Field) IsZero(a Element) bool {
	return a[0]|a[1]|a[2]|a[3] == 0
}

// IsOne reports whether a is 1.
func (f *Field) IsOne(a Element) bool {
	return a == f.r
}

// Equal reports whether a and b represent the same field element.
func (f *Field) Equal(a, b Element) bool { return a == b }

// FromUint64 returns the field element v mod p.
func (f *Field) FromUint64(v uint64) Element {
	return f.Mul(Element{v}, f.r2)
}

// FromInt64 returns the field element v mod p, mapping negative v to p-|v|.
func (f *Field) FromInt64(v int64) Element {
	if v >= 0 {
		return f.FromUint64(uint64(v))
	}
	return f.Neg(f.FromUint64(uint64(-v)))
}

// FromBig returns the field element v mod p. v may be negative or larger
// than p.
func (f *Field) FromBig(v *big.Int) Element {
	t := new(big.Int).Mod(v, f.pBig) // Mod result is always in [0, p)
	var raw Element
	copyLimbs((*[Limbs]uint64)(&raw), t)
	return f.Mul(raw, f.r2)
}

// ToBig returns the canonical representative of a in [0, p).
func (f *Field) ToBig(a Element) *big.Int {
	s := f.fromMont(a)
	buf := make([]byte, Limbs*8)
	for i := 0; i < Limbs; i++ {
		putBE(buf[(Limbs-1-i)*8:], s[i])
	}
	return new(big.Int).SetBytes(buf)
}

// SignedBig returns the representative of a in (-p/2, p/2], which recovers
// signed integers that were embedded with FromInt64.
func (f *Field) SignedBig(a Element) *big.Int {
	v := f.ToBig(a)
	if v.Cmp(f.halfP) > 0 {
		v.Sub(v, f.pBig)
	}
	return v
}

func putBE(b []byte, v uint64) {
	b[0] = byte(v >> 56)
	b[1] = byte(v >> 48)
	b[2] = byte(v >> 40)
	b[3] = byte(v >> 32)
	b[4] = byte(v >> 24)
	b[5] = byte(v >> 16)
	b[6] = byte(v >> 8)
	b[7] = byte(v)
}

// Add returns a + b.
func (f *Field) Add(a, b Element) Element {
	var c uint64
	var out Element
	out[0], c = bits.Add64(a[0], b[0], 0)
	out[1], c = bits.Add64(a[1], b[1], c)
	out[2], c = bits.Add64(a[2], b[2], c)
	out[3], c = bits.Add64(a[3], b[3], c)
	// p < 2^254 so the sum cannot overflow 2^256; reduce once if ≥ p.
	_ = c
	return f.reduceOnce(out)
}

// Double returns 2a.
func (f *Field) Double(a Element) Element { return f.Add(a, a) }

// Sub returns a - b.
func (f *Field) Sub(a, b Element) Element {
	var bw uint64
	var out Element
	out[0], bw = bits.Sub64(a[0], b[0], 0)
	out[1], bw = bits.Sub64(a[1], b[1], bw)
	out[2], bw = bits.Sub64(a[2], b[2], bw)
	out[3], bw = bits.Sub64(a[3], b[3], bw)
	if bw != 0 {
		var c uint64
		out[0], c = bits.Add64(out[0], f.p[0], 0)
		out[1], c = bits.Add64(out[1], f.p[1], c)
		out[2], c = bits.Add64(out[2], f.p[2], c)
		out[3], _ = bits.Add64(out[3], f.p[3], c)
	}
	return out
}

// Neg returns -a.
func (f *Field) Neg(a Element) Element {
	if f.IsZero(a) {
		return a
	}
	return f.Sub(Element{}, a)
}

func (f *Field) reduceOnce(a Element) Element {
	var bw uint64
	var t Element
	t[0], bw = bits.Sub64(a[0], f.p[0], 0)
	t[1], bw = bits.Sub64(a[1], f.p[1], bw)
	t[2], bw = bits.Sub64(a[2], f.p[2], bw)
	t[3], bw = bits.Sub64(a[3], f.p[3], bw)
	if bw != 0 {
		return a
	}
	return t
}

// madd2 returns the 128-bit value a·b + t + c as (hi, lo). The result cannot
// overflow: (2^64-1)² + 2(2^64-1) = 2^128 - 1.
func madd2(a, b, t, c uint64) (hi, lo uint64) {
	hi, lo = bits.Mul64(a, b)
	var carry uint64
	lo, carry = bits.Add64(lo, t, 0)
	hi, _ = bits.Add64(hi, 0, carry)
	lo, carry = bits.Add64(lo, c, 0)
	hi, _ = bits.Add64(hi, 0, carry)
	return
}

// Mul returns a·b using CIOS Montgomery multiplication. The unrolled
// fixed-limb paths (mulfixed.go) are selected once at construction; builds
// without them (-tags purego) run the generic loop below.
func (f *Field) Mul(a, b Element) Element {
	if f.twoLimb && a[2]|a[3]|b[2]|b[3] == 0 {
		return f.reduceOnce(mulUnrolled2(&f.p, f.inv, a, b))
	}
	if f.fixed {
		return f.reduceOnce(mulUnrolled4(&f.p, f.inv, a, b))
	}
	return f.mulGeneric(a, b)
}

// MulLazy returns a·b in the lazy domain: for operands in [0, 2p) the result
// is in [0, 2p) (this needs p < 2^254, which New enforces). The NTT
// butterflies run whole transform levels in this domain and pay the final
// conditional subtraction once per element, not once per multiply.
func (f *Field) MulLazy(a, b Element) Element {
	if f.fixed {
		return mulUnrolled4(&f.p, f.inv, a, b)
	}
	return f.mulGenericRaw(a, b)
}

// AddLazy returns a + b in the lazy domain [0, 2p): the sum is reduced by
// 2p, not p, saving the exact-reduction compare on the NTT hot path.
func (f *Field) AddLazy(a, b Element) Element {
	var c uint64
	var out Element
	out[0], c = bits.Add64(a[0], b[0], 0)
	out[1], c = bits.Add64(a[1], b[1], c)
	out[2], c = bits.Add64(a[2], b[2], c)
	out[3], _ = bits.Add64(a[3], b[3], c)
	var bw uint64
	var t Element
	t[0], bw = bits.Sub64(out[0], f.p2[0], 0)
	t[1], bw = bits.Sub64(out[1], f.p2[1], bw)
	t[2], bw = bits.Sub64(out[2], f.p2[2], bw)
	t[3], bw = bits.Sub64(out[3], f.p2[3], bw)
	if bw != 0 {
		return out
	}
	return t
}

// SubLazy returns a - b in the lazy domain [0, 2p).
func (f *Field) SubLazy(a, b Element) Element {
	var bw uint64
	var out Element
	out[0], bw = bits.Sub64(a[0], b[0], 0)
	out[1], bw = bits.Sub64(a[1], b[1], bw)
	out[2], bw = bits.Sub64(a[2], b[2], bw)
	out[3], bw = bits.Sub64(a[3], b[3], bw)
	if bw != 0 {
		var c uint64
		out[0], c = bits.Add64(out[0], f.p2[0], 0)
		out[1], c = bits.Add64(out[1], f.p2[1], c)
		out[2], c = bits.Add64(out[2], f.p2[2], c)
		out[3], _ = bits.Add64(out[3], f.p2[3], c)
	}
	return out
}

// Reduce maps a lazy-domain value in [0, 2p) back to the canonical range
// [0, p). It is the identity on already-canonical elements.
func (f *Field) Reduce(a Element) Element {
	return f.reduceOnce(a)
}

// mulGeneric is the generic-path full product: the CIOS loop plus the exact
// final reduction. It is the purego fallback and the reference lane of the
// differential fuzz target.
func (f *Field) mulGeneric(a, b Element) Element {
	return f.reduceOnce(f.mulGenericRaw(a, b))
}

// mulGenericRaw is the variable-bound CIOS loop (Acar's algorithm with s+2
// working words, correct for any odd modulus < 2^254), without the final
// exact reduction: for operands in [0, 2p) the result is in [0, 2p).
func (f *Field) mulGenericRaw(a, b Element) Element {
	var t [Limbs + 2]uint64
	for i := 0; i < Limbs; i++ {
		// t += a * b[i]
		var c uint64
		for j := 0; j < Limbs; j++ {
			c, t[j] = madd2(a[j], b[i], t[j], c)
		}
		var cr uint64
		t[Limbs], cr = bits.Add64(t[Limbs], c, 0)
		t[Limbs+1] = cr

		// Montgomery step: add m·p so that t ≡ 0 mod 2^64, then shift right
		// by one word.
		m := t[0] * f.inv
		c, _ = madd2(m, f.p[0], t[0], 0)
		for j := 1; j < Limbs; j++ {
			c, t[j-1] = madd2(m, f.p[j], t[j], c)
		}
		t[Limbs-1], cr = bits.Add64(t[Limbs], c, 0)
		t[Limbs] = t[Limbs+1] + cr
		t[Limbs+1] = 0
	}
	// With p < 2^254 the CIOS accumulator never reaches 2^256 (the result
	// is < 2p < 2^255 even for lazy-domain operands), so t[Limbs] is zero
	// here and the four low words carry the whole product.
	return Element{t[0], t[1], t[2], t[3]}
}

// Square returns a².
func (f *Field) Square(a Element) Element { return f.Mul(a, a) }

// fromMont converts out of Montgomery form (multiplies by R⁻¹).
func (f *Field) fromMont(a Element) Element {
	return f.Mul(a, Element{1})
}

// Exp returns a^e for a non-negative exponent e.
func (f *Field) Exp(a Element, e *big.Int) Element {
	if e.Sign() < 0 {
		panic("field: negative exponent")
	}
	out := f.One()
	for i := e.BitLen() - 1; i >= 0; i-- {
		out = f.Mul(out, out)
		if e.Bit(i) == 1 {
			out = f.Mul(out, a)
		}
	}
	return out
}

// ExpUint returns a^e.
func (f *Field) ExpUint(a Element, e uint64) Element {
	out := f.One()
	for i := 63 - bits.LeadingZeros64(e|1); i >= 0; i-- {
		out = f.Mul(out, out)
		if e&(1<<uint(i)) != 0 {
			out = f.Mul(out, a)
		}
	}
	return out
}

// Inv returns a⁻¹; it panics if a is zero (fields have no zero inverse, and
// a zero here always indicates a protocol bug, not bad input).
func (f *Field) Inv(a Element) Element {
	if f.IsZero(a) {
		panic("field: inverse of zero")
	}
	// a is aR in Montgomery form; ModInverse gives (aR)⁻¹; multiplying by
	// R³ (i.e. Mul by r2 twice) yields a⁻¹R, the Montgomery form of a⁻¹.
	v := new(big.Int)
	s := f.fromMont(a) // canonical a
	buf := make([]byte, Limbs*8)
	for i := 0; i < Limbs; i++ {
		putBE(buf[(Limbs-1-i)*8:], s[i])
	}
	v.SetBytes(buf)
	v.ModInverse(v, f.pBig)
	return f.FromBig(v)
}

// Div returns a/b.
func (f *Field) Div(a, b Element) Element {
	return f.Mul(a, f.Inv(b))
}

// BatchInv inverts every element of src into dst using Montgomery's trick:
// one field inversion plus 3(n-1) multiplications. Zero inputs panic as in
// Inv. dst and src may alias.
func (f *Field) BatchInv(dst, src []Element) {
	if len(dst) != len(src) {
		panic("field: BatchInv length mismatch")
	}
	if len(src) == 0 {
		return
	}
	prefix := make([]Element, len(src))
	acc := f.One()
	for i, v := range src {
		prefix[i] = acc
		acc = f.Mul(acc, v)
	}
	inv := f.Inv(acc)
	for i := len(src) - 1; i >= 0; i-- {
		v := src[i]
		dst[i] = f.Mul(inv, prefix[i])
		inv = f.Mul(inv, v)
	}
}

// RootOfUnity returns a primitive 2^k-th root of unity; it panics if
// k exceeds the field's 2-adicity.
func (f *Field) RootOfUnity(k uint) Element {
	if k > f.twoAdicity {
		panic(fmt.Sprintf("field: no 2^%d-th root of unity in %s (2-adicity %d)", k, f.name, f.twoAdicity))
	}
	u := f.rootOfUnity
	for i := f.twoAdicity; i > k; i-- {
		u = f.Mul(u, u)
	}
	return u
}

// String formats the canonical value of a in f, for debugging.
func (f *Field) String(a Element) string {
	return f.ToBig(a).String()
}

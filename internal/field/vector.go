package field

import (
	"encoding/binary"
	"io"
	"math/big"
	"math/bits"
)

// Rand returns a uniformly random field element drawn from r using rejection
// sampling over the modulus' bit length: each attempt consumes
// ⌈bits/8⌉ bytes of r, read as one big-endian integer with the excess top
// bits cleared.
func (f *Field) Rand(r io.Reader) Element {
	buf := make([]byte, (f.bits+7)/8)
	for {
		readRandom(r, buf)
		if e, ok := f.fromRandomBytes(buf); ok {
			return e
		}
	}
}

// randChunk is how many attempts RandVector reads from its source at once.
const randChunk = 256

// RandVector fills a new length-n vector with uniformly random elements. It
// consumes exactly the bytes n successive Rand calls would, in the same
// order, but reads them in chunks through one reused buffer.
func (f *Field) RandVector(n int, r io.Reader) []Element {
	v := make([]Element, n)
	nbytes := (f.bits + 7) / 8
	buf := make([]byte, min(n, randChunk)*nbytes)
	for i := 0; i < n; {
		// Every element still missing costs at least one attempt, so a chunk
		// of that many attempts never reads past where Rand would stop.
		chunk := buf[:min(n-i, randChunk)*nbytes]
		readRandom(r, chunk)
		for ; len(chunk) > 0; chunk = chunk[nbytes:] {
			if e, ok := f.fromRandomBytes(chunk[:nbytes]); ok {
				v[i] = e
				i++
			}
		}
	}
	return v
}

func readRandom(r io.Reader, buf []byte) {
	if _, err := io.ReadFull(r, buf); err != nil {
		panic("field: randomness source failed: " + err.Error())
	}
}

// fromRandomBytes is one rejection-sampling attempt: b, of ⌈bits/8⌉ bytes,
// is masked to the modulus' bit length in place and accepted if below p.
func (f *Field) fromRandomBytes(b []byte) (Element, bool) {
	b[0] &= byte(0xff >> (uint(len(b)*8-f.bits) & 7))
	var raw Element
	limb := 0
	for ; len(b) >= 8; limb++ {
		raw[limb] = binary.BigEndian.Uint64(b[len(b)-8:])
		b = b[:len(b)-8]
	}
	for _, c := range b { // the leading partial word
		raw[limb] = raw[limb]<<8 | uint64(c)
	}
	if !f.lessThanP(raw) {
		return Element{}, false
	}
	// raw is a canonical residue; convert to Montgomery form.
	return f.Mul(raw, f.r2), true
}

// RandNonZero returns a uniformly random non-zero field element.
func (f *Field) RandNonZero(r io.Reader) Element {
	for {
		e := f.Rand(r)
		if !f.IsZero(e) {
			return e
		}
	}
}

func (f *Field) lessThanP(a Element) bool {
	var bw uint64
	_, bw = bits.Sub64(a[0], f.p[0], 0)
	_, bw = bits.Sub64(a[1], f.p[1], bw)
	_, bw = bits.Sub64(a[2], f.p[2], bw)
	_, bw = bits.Sub64(a[3], f.p[3], bw)
	return bw != 0
}

// InnerProduct returns Σ a[i]·b[i] using lazy reduction: the 512-bit partial
// products accumulate into a 576-bit accumulator and a single Montgomery
// reduction happens at the end. This is the f_lazy optimization of §5.1: the
// prover's query responses are inner products over vectors of length |u|,
// and skipping the per-term reduction saves roughly 3× (see the field
// benchmarks).
func (f *Field) InnerProduct(a, b []Element) Element {
	if len(a) != len(b) {
		panic("field: InnerProduct length mismatch")
	}
	var acc [9]uint64
	for i := range a {
		mulAcc(&acc, a[i], b[i])
	}
	return f.reduceWide(acc)
}

// AddScaled returns dst[i] += s·src[i] for all i, in place.
func (f *Field) AddScaled(dst []Element, s Element, src []Element) {
	if len(dst) != len(src) {
		panic("field: AddScaled length mismatch")
	}
	for i := range dst {
		dst[i] = f.Add(dst[i], f.Mul(s, src[i]))
	}
}

// AddVec returns the element-wise sum of a and b as a fresh vector.
func (f *Field) AddVec(a, b []Element) []Element {
	if len(a) != len(b) {
		panic("field: AddVec length mismatch")
	}
	out := make([]Element, len(a))
	for i := range a {
		out[i] = f.Add(a[i], b[i])
	}
	return out
}

// mulAcc accumulates the full 512-bit product a·b into acc.
func mulAcc(acc *[9]uint64, a, b Element) {
	var prod [8]uint64
	for i := 0; i < Limbs; i++ {
		var c uint64
		for j := 0; j < Limbs; j++ {
			c, prod[i+j] = madd2(a[j], b[i], prod[i+j], c)
		}
		prod[i+Limbs] = c
	}
	var carry uint64
	for i := 0; i < 8; i++ {
		acc[i], carry = bits.Add64(acc[i], prod[i], carry)
	}
	acc[8] += carry
}

// reduceWide reduces a 9-limb accumulator of Montgomery-form products.
// If a, b are Montgomery forms aR, bR then acc holds Σ a_i b_i R²; reducing
// modulo p and applying one Montgomery reduction yields (Σ a_i b_i)·R — the
// Montgomery form of the true inner product.
func (f *Field) reduceWide(acc [9]uint64) Element {
	// big.Int reduction of the 576-bit value: one allocation per inner
	// product, negligible next to the O(n) multiply work.
	buf := make([]byte, 9*8)
	for i := 0; i < 9; i++ {
		putBE(buf[(9-1-i)*8:], acc[i])
	}
	v := new(big.Int).SetBytes(buf)
	v.Mod(v, f.pBig)
	var raw Element
	copyLimbs((*[Limbs]uint64)(&raw), v)
	// raw = (Σ a_i b_i)R² mod p; one REDC (multiply by 1) gives (Σ a_i b_i)R.
	return f.Mul(raw, Element{1})
}

// Pow2 returns 2^k as a field element.
func (f *Field) Pow2(k uint) Element {
	return f.Exp(f.FromUint64(2), new(big.Int).SetUint64(uint64(k)))
}

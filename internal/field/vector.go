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
// and skipping the per-term reduction is most of the saving. On a two-limb
// field (p < 2^128) a term whose operands both fit two limbs is a 2×2
// product (mulAcc2) instead of a 4×4 one, with the same guard as Mul.
func (f *Field) InnerProduct(a, b []Element) Element {
	if len(a) != len(b) {
		panic("field: InnerProduct length mismatch")
	}
	var acc [9]uint64
	for i := range a {
		x, y := &a[i], &b[i]
		if f.twoLimb && x[2]|x[3]|y[2]|y[3] == 0 {
			mulAcc2(&acc, x, y)
		} else {
			mulAcc(&acc, *x, *y)
		}
	}
	return f.reduceWide(acc)
}

// foldBlock is how many coordinates AddLinearCombination accumulates at
// once: 512 nine-word accumulators are 36 KiB, and each vector is read in
// 16 KiB runs.
const foldBlock = 512

// AddLinearCombination sets dst[j] += Σ_i coeffs[i]·vecs[i][j] for every j,
// in place. It is InnerProduct's lazy reduction turned on its side: each
// coordinate sums its len(vecs) products unreduced in one nine-word
// accumulator and pays a single reduceWide, where a term-by-term fold pays a
// Montgomery reduction and a conditional subtraction per product. The bound
// is the same: products of canonical operands are < p² < 2^508, so the
// 576-bit accumulator has room for 2^67 terms.
//
// Coordinates go in blocks of foldBlock, and within a block vector by
// vector, so every vector streams through in contiguous runs. Walking one
// coordinate at a time down all the vectors instead touches one cache line
// per vector, and equally sized vectors sit a multiple of the page size
// apart, in the same few cache sets.
func (f *Field) AddLinearCombination(dst, coeffs []Element, vecs [][]Element) {
	if len(coeffs) != len(vecs) {
		panic("field: AddLinearCombination coefficient count mismatch")
	}
	for _, v := range vecs {
		if len(v) != len(dst) {
			panic("field: AddLinearCombination length mismatch")
		}
	}
	acc := make([][9]uint64, min(foldBlock, len(dst)))
	for j0 := 0; j0 < len(dst); j0 += foldBlock {
		d := dst[j0:min(j0+foldBlock, len(dst))]
		acc := acc[:len(d)]
		clear(acc)
		for i, v := range vecs {
			x := &coeffs[i]
			for k := range d {
				y := &v[j0+k]
				if f.twoLimb && x[2]|x[3]|y[2]|y[3] == 0 {
					mulAcc2(&acc[k], x, y)
				} else {
					mulAcc(&acc[k], *x, *y)
				}
			}
		}
		for k := range d {
			d[k] = f.Add(d[k], f.reduceWide(acc[k]))
		}
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
// If a, b are Montgomery forms aR, bR then acc holds Σ a_i b_i R², and the
// Montgomery form of the true inner product is acc·R⁻¹ mod p. Two
// word-by-word Montgomery reductions divide by R² — the first leaves less
// than 2^319 + p, the second less than 2^64 + p — and a Mul by R² mod p
// multiplies one R back in, landing on (Σ a_i b_i)·R reduced into [0, p).
// acc must stay below 2^575, which every sum of fewer than 2^67 canonical
// products does.
func (f *Field) reduceWide(acc [9]uint64) Element {
	u := f.redcWide(acc)
	v := f.redcWide([9]uint64{u[0], u[1], u[2], u[3], u[4]})
	return f.Mul(Element{v[0], v[1], v[2], v[3]}, f.r2)
}

// redcWide runs four Montgomery steps over the nine-word value v, returning
// v·2^-256 mod p as five words below v/2^256 + p. Each step adds m·p at the
// lowest nonzero word, so the total added is below 2^256·p < 2^510 and
// cannot carry out of word 8 while v < 2^575.
func (f *Field) redcWide(v [9]uint64) [5]uint64 {
	for i := 0; i < Limbs; i++ {
		m := v[i] * f.inv
		c, _ := madd2(m, f.p[0], v[i], 0)
		for j := 1; j < Limbs; j++ {
			c, v[i+j] = madd2(m, f.p[j], v[i+j], c)
		}
		for j := i + Limbs; j < len(v); j++ {
			v[j], c = bits.Add64(v[j], c, 0)
		}
	}
	return [5]uint64(v[Limbs:])
}

// Pow2 returns 2^k as a field element.
func (f *Field) Pow2(k uint) Element {
	return f.Exp(f.FromUint64(2), new(big.Int).SetUint64(uint64(k)))
}

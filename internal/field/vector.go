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
	var e [1]Element
	f.randInto(e[:], r)
	return e[0]
}

// randChunk is how many attempts RandVector reads from its source at once.
const randChunk = 256

// RandVector fills a new length-n vector with uniformly random elements. It
// consumes exactly the bytes n successive Rand calls would, in the same
// order, but reads them in chunks through one reused buffer.
func (f *Field) RandVector(n int, r io.Reader) []Element {
	v := make([]Element, n)
	f.randInto(v, r)
	return v
}

// randLayout is how one rejection-sampling attempt's bytes map onto limbs,
// fixed by the modulus' bit length at New.
type randLayout struct {
	nbytes int    // bytes per attempt, ⌈bits/8⌉
	limbs  int    // limbs an attempt fills, ⌈nbytes/8⌉
	top    uint64 // top limb mask: the low bits − 64(limbs−1) bits set
}

func newRandLayout(bits int) randLayout {
	nbytes := (bits + 7) / 8
	limbs := (nbytes + 7) / 8
	return randLayout{nbytes: nbytes, limbs: limbs, top: ^uint64(0) >> uint(64*limbs-bits)}
}

// randInto fills v with uniformly random elements, reading attempts from r
// in chunks of at most randChunk. Each attempt is the big-endian integer of
// its nbytes bytes reduced mod 2^bits — the same integer as clearing the
// excess top bits of its first byte — parsed with whole-word loads: limb k
// is the word ending 8k bytes before the attempt's end, and the top limb's
// word reaches back into the bytes before the attempt (the previous attempt,
// or an 8-byte pad ahead of the first), which the mask clears. Accepted
// attempts are stored raw and converted to Montgomery form once per chunk.
func (f *Field) randInto(v []Element, r io.Reader) {
	const pad = 8
	lay := f.rand
	buf := make([]byte, pad+min(len(v), randChunk)*lay.nbytes)
	for i := 0; i < len(v); {
		// Every element still missing costs at least one attempt, so a chunk
		// of that many attempts never reads past where Rand would stop.
		end := pad + min(len(v)-i, randChunk)*lay.nbytes
		readRandom(r, buf[pad:end])
		start := i
		for at := pad + lay.nbytes; at <= end; at += lay.nbytes {
			var raw Element
			w := at
			for k := 0; k < lay.limbs-1; k++ {
				raw[k] = binary.BigEndian.Uint64(buf[w-8 : w])
				w -= 8
			}
			raw[lay.limbs-1] = binary.BigEndian.Uint64(buf[w-8:w]) & lay.top
			if f.lessThanP(raw) {
				v[i] = raw
				i++
			}
		}
		f.toMontgomery(v[start:i])
	}
}

// toMontgomery converts canonical residues to Montgomery form in place, with
// the field's kernel chosen once per call rather than per element: on the
// two-limb lane toMont2, elsewhere a product with R² mod p.
func (f *Field) toMontgomery(v []Element) {
	switch {
	case f.twoLimb:
		for k := range v {
			v[k] = toMont2(&f.p, f.inv, &v[k], &f.r384)
		}
	case f.fixed:
		for k := range v {
			v[k] = f.reduceOnce(mulUnrolled4(&f.p, f.inv, v[k], f.r2))
		}
	default:
		for k := range v {
			v[k] = f.mulGeneric(v[k], f.r2)
		}
	}
}

func readRandom(r io.Reader, buf []byte) {
	if _, err := io.ReadFull(r, buf); err != nil {
		panic("field: randomness source failed: " + err.Error())
	}
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

// Package poly implements the dense univariate polynomial arithmetic the QAP
// layer needs over the prime fields of internal/field: the radix-2 NTT, NTT
// multiplication, and cyclic convolution against a fixed kernel.
//
// §4 and §A.3 of the paper charge the prover ≈ 3·f·|C|·log²|C| for
// "operations based on the FFT (interpolation, polynomial multiplication,
// and polynomial division)". This code base does not run that pipeline: the
// prover's quotient H(t) is produced in the evaluation basis (internal/qap),
// which needs no interpolation and no division, only the Convolver below.
// The schoolbook routines (MulNaive, DivRemNaive, InterpolateNaive) remain
// as the correctness oracles and the ablation baseline.
//
// A polynomial is a []field.Element of coefficients, lowest degree first.
// The zero polynomial is represented by an empty (or all-zero) slice.
package poly

import (
	"fmt"
	"math/bits"
	"sync"

	"zaatar/internal/field"
)

// Trim returns p without trailing zero coefficients.
func Trim(f *field.Field, p []field.Element) []field.Element {
	n := len(p)
	for n > 0 && f.IsZero(p[n-1]) {
		n--
	}
	return p[:n]
}

// Degree returns the degree of p, or -1 for the zero polynomial.
func Degree(f *field.Field, p []field.Element) int {
	return len(Trim(f, p)) - 1
}

// Equal reports whether a and b represent the same polynomial.
func Equal(f *field.Field, a, b []field.Element) bool {
	a, b = Trim(f, a), Trim(f, b)
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !f.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// Sub returns a - b.
func Sub(f *field.Field, a, b []field.Element) []field.Element {
	n := len(a)
	if len(b) > n {
		n = len(b)
	}
	out := make([]field.Element, n)
	copy(out, a)
	for i := range b {
		out[i] = f.Sub(out[i], b[i])
	}
	return out
}

// Eval evaluates p at x by Horner's rule.
func Eval(f *field.Field, p []field.Element, x field.Element) field.Element {
	acc := f.Zero()
	for i := len(p) - 1; i >= 0; i-- {
		acc = f.Add(f.Mul(acc, x), p[i])
	}
	return acc
}

// MulNaive returns a·b by the schoolbook algorithm: the correctness oracle
// for the NTT path and the ablation baseline in the benchmarks.
func MulNaive(f *field.Field, a, b []field.Element) []field.Element {
	a, b = Trim(f, a), Trim(f, b)
	if len(a) == 0 || len(b) == 0 {
		return nil
	}
	out := make([]field.Element, len(a)+len(b)-1)
	for i := range a {
		if f.IsZero(a[i]) {
			continue
		}
		for j := range b {
			out[i+j] = f.Add(out[i+j], f.Mul(a[i], b[j]))
		}
	}
	return out
}

// MulNTT returns a·b via three number-theoretic transforms.
func MulNTT(f *field.Field, a, b []field.Element) []field.Element {
	a, b = Trim(f, a), Trim(f, b)
	if len(a) == 0 || len(b) == 0 {
		return nil
	}
	outLen := len(a) + len(b) - 1
	n := nextPow2(outLen)
	fa := make([]field.Element, n)
	fb := make([]field.Element, n)
	copy(fa, a)
	copy(fb, b)
	NTT(f, fa, false)
	NTT(f, fb, false)
	for i := range fa {
		fa[i] = f.Mul(fa[i], fb[i])
	}
	NTT(f, fa, true)
	return fa[:outLen]
}

func nextPow2(n int) int {
	k := 1
	for k < n {
		k <<= 1
	}
	return k
}

// nttPlan holds the precomputed twiddle factors for one (field, size,
// direction) transform: the per-level power rows w^0..w^(half-1), flattened
// level after level (n-1 elements total), plus the 1/n scaling for the
// inverse direction. Plans are cached process-wide — the prover runs six
// same-size transforms per proof (internal/qap's BuildH) — which removes
// both the per-call f.Inv of the root and the serial wj-update multiply that
// would otherwise run once per butterfly (half the NTT's multiplication
// count).
type nttPlan struct {
	tw   []field.Element // concatenated twiddle rows, canonical form
	nInv field.Element   // 1/n (inverse transforms only)
}

type nttPlanKey struct {
	f      *field.Field
	logn   uint
	invert bool
}

// nttPlanCache caches plans up to nttPlanCacheMax points; larger transforms
// build their rows per call (still amortized across that call's butterflies).
var nttPlanCache sync.Map // nttPlanKey → *nttPlan

// nttPlanCacheMax bounds cached plan memory: 2^18 points is 8 MB of
// twiddles per (field, direction) pair.
const nttPlanCacheMax = 1 << 18

func newNTTPlan(f *field.Field, logn uint, n int, invert bool) *nttPlan {
	root := f.RootOfUnity(logn)
	if invert {
		root = f.Inv(root)
	}
	p := &nttPlan{tw: make([]field.Element, 0, n-1)}
	for length := 2; length <= n; length <<= 1 {
		// w is a primitive length-th root of unity.
		w := root
		for l := n; l > length; l >>= 1 {
			w = f.Mul(w, w)
		}
		wj := f.One()
		for j := 0; j < length>>1; j++ {
			p.tw = append(p.tw, wj)
			wj = f.Mul(wj, w)
		}
	}
	if invert {
		p.nInv = f.Inv(f.FromUint64(uint64(n)))
	}
	return p
}

func nttPlanFor(f *field.Field, logn uint, n int, invert bool) *nttPlan {
	if n > nttPlanCacheMax {
		return newNTTPlan(f, logn, n, invert)
	}
	key := nttPlanKey{f: f, logn: logn, invert: invert}
	if p, ok := nttPlanCache.Load(key); ok {
		return p.(*nttPlan)
	}
	p, _ := nttPlanCache.LoadOrStore(key, newNTTPlan(f, logn, n, invert))
	return p.(*nttPlan)
}

// NTT computes the in-place radix-2 number-theoretic transform of a, whose
// length must be a power of two not exceeding 2^(field 2-adicity). With
// invert set it computes the inverse transform (including the 1/n scaling).
//
// The butterflies run in the field's lazy domain [0, 2p): one multiply and
// one 2p-reduction each, with the exact reduction deferred to a single final
// pass (folded into the 1/n scaling for inverse transforms).
func NTT(f *field.Field, a []field.Element, invert bool) {
	n := len(a)
	if n&(n-1) != 0 {
		panic(fmt.Sprintf("poly: NTT size %d is not a power of two", n))
	}
	if n <= 1 {
		return
	}
	logn := uint(0)
	for 1<<logn < n {
		logn++
	}
	// Bit-reversal permutation.
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j |= bit
		if i < j {
			a[i], a[j] = a[j], a[i]
		}
	}
	plan := nttPlanFor(f, logn, n, invert)
	tw := plan.tw
	for length := 2; length <= n; length <<= 1 {
		half := length >> 1
		row := tw[:half]
		tw = tw[half:]
		for start := 0; start < n; start += length {
			for j := 0; j < half; j++ {
				u := a[start+j]
				v := f.MulLazy(a[start+j+half], row[j])
				a[start+j] = f.AddLazy(u, v)
				a[start+j+half] = f.SubLazy(u, v)
			}
		}
	}
	if invert {
		// The strict multiply accepts lazy-domain inputs and returns the
		// canonical representative, so the scaling pass doubles as the
		// final exact reduction.
		for i := range a {
			a[i] = f.Mul(a[i], plan.nInv)
		}
		return
	}
	for i := range a {
		a[i] = f.Reduce(a[i])
	}
}

// Convolver computes cyclic convolutions against one fixed kernel, whose
// forward transform is taken once. It is immutable after construction and
// safe for concurrent use.
type Convolver struct {
	f    *field.Field
	kHat []field.Element // NTT of the zero-padded kernel
}

// NewConvolver prepares cyclic convolution of size nextPow2(len(kernel))
// against kernel. It fails if the field has no root of unity of that order.
func NewConvolver(f *field.Field, kernel []field.Element) (*Convolver, error) {
	n := nextPow2(len(kernel))
	if bits.Len(uint(n))-1 > int(f.TwoAdicity()) {
		return nil, fmt.Errorf("poly: convolution size %d exceeds the 2^%d-point NTT limit of %s", n, f.TwoAdicity(), f.Name())
	}
	kHat := make([]field.Element, n)
	copy(kHat, kernel)
	NTT(f, kHat, false)
	return &Convolver{f: f, kHat: kHat}, nil
}

// Size returns the convolution length, a power of two.
func (c *Convolver) Size() int { return len(c.kHat) }

// Convolve replaces a, which must have length Size, by its cyclic
// convolution with the kernel: a[m] ← Σ_{i+j ≡ m} a[i]·kernel[j]. Two NTTs
// and Size multiplications.
func (c *Convolver) Convolve(a []field.Element) {
	if len(a) != len(c.kHat) {
		panic(fmt.Sprintf("poly: Convolve on %d elements, want %d", len(a), len(c.kHat)))
	}
	f := c.f
	NTT(f, a, false)
	for i := range a {
		a[i] = f.Mul(a[i], c.kHat[i])
	}
	NTT(f, a, true)
}

// DivRemNaive is schoolbook long division: returns (q, r) with a = q·b + r
// and deg r < deg b. It panics if b is zero.
func DivRemNaive(f *field.Field, a, b []field.Element) (q, r []field.Element) {
	a, b = Trim(f, a), Trim(f, b)
	if len(b) == 0 {
		panic("poly: division by zero polynomial")
	}
	r = append([]field.Element(nil), a...)
	if len(a) < len(b) {
		return nil, r
	}
	db := len(b) - 1
	lcInv := f.Inv(b[db])
	q = make([]field.Element, len(a)-db)
	for i := len(r) - 1; i >= db; i-- {
		c := f.Mul(r[i], lcInv)
		q[i-db] = c
		if f.IsZero(c) {
			continue
		}
		for j := 0; j <= db; j++ {
			r[i-db+j] = f.Sub(r[i-db+j], f.Mul(c, b[j]))
		}
	}
	return q, Trim(f, r)
}

// InterpolateNaive is Lagrange interpolation from the definition, O(n³) as
// written: the unique polynomial of degree < n through (points[i],
// values[i]), for distinct points.
func InterpolateNaive(f *field.Field, points, values []field.Element) []field.Element {
	n := len(points)
	if len(values) != n {
		panic("poly: InterpolateNaive length mismatch")
	}
	// All n Lagrange denominators ∏_{j≠i}(u_i - u_j) first, inverted in one
	// BatchInv pass (3(n-1)+1 mults + one inversion instead of n inversions).
	denoms := make([]field.Element, n)
	for i := 0; i < n; i++ {
		d := f.One()
		for j := 0; j < n; j++ {
			if j != i {
				d = f.Mul(d, f.Sub(points[i], points[j]))
			}
		}
		denoms[i] = d
	}
	f.BatchInv(denoms, denoms)
	out := make([]field.Element, n)
	for i := 0; i < n; i++ {
		// basis_i(x) = ∏_{j≠i} (x - u_j)/(u_i - u_j)
		basis := []field.Element{f.One()}
		for j := 0; j < n; j++ {
			if j != i {
				basis = MulNaive(f, basis, []field.Element{f.Neg(points[j]), f.One()})
			}
		}
		c := f.Mul(values[i], denoms[i])
		for k := range basis {
			out[k] = f.Add(out[k], f.Mul(c, basis[k]))
		}
	}
	return Trim(f, out)
}

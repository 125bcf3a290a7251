package elgamal

import (
	"context"
	"errors"
	"math/big"

	"zaatar/internal/field"
	"zaatar/internal/obs"
	"zaatar/internal/par"
)

// Signed-digit (wNAF-style) Pippenger. Recoding each w-bit window digit
// d ∈ [0, 2^w) into a signed digit in [-2^(w-1), 2^(w-1)] halves the bucket
// count per window, at the price of one extra carry window and access to the
// base inverses. In Z_P* an inverse is a full extended GCD, so the kernel
// never inverts per base: a single Montgomery batch inversion (mont.go)
// covers the whole vector in ~3n multiplications, and PreparedVector caches
// it across every inner product a commit batch runs against the same Enc(r).
const (
	// MetricMultiExpSigned counts kernel invocations that took the
	// signed-digit Pippenger path.
	MetricMultiExpSigned = "elgamal.multiexp.signed"
	// MetricPreparedVectors counts PreparedVector builds.
	MetricPreparedVectors = "elgamal.multiexp.prepared"
)

// pippengerSignedPlan picks the width minimizing the signed kernel's mult
// count t·(n + 2·2^(w-1) + w) over t = ⌈qbits/w⌉+1 windows (the +1 is the
// carry window). The base inverses come cached in a PreparedVector, so the
// batch inversion is not charged here.
func pippengerSignedPlan(n, qbits int) (w, cost int) {
	w, cost = 1, int(^uint(0)>>1)
	for cand := 1; cand <= 16; cand++ {
		t := (qbits+cand-1)/cand + 1
		c := t * (n + 2*(1<<uint(cand-1)) + cand)
		if c < cost {
			w, cost = cand, c
		}
	}
	return w, cost
}

// signedDigits returns the w-bit signed-digit decomposition of every scalar,
// flattened: nwin digits per scalar, least significant first, each in
// [-(2^(w-1)-1), 2^(w-1)]. The value is preserved exactly: Σ d_j·2^(jw)
// equals the scalar, with the final digit absorbing the last carry (0 or 1).
func (sc *scalars) signedDigits(w int) (digits []int32, nwin int) {
	nwin = (sc.bits+w-1)/w + 1
	n := len(sc.limbs) / sc.ql
	digits = make([]int32, n*nwin)
	half := int64(1) << uint(w-1)
	full := int64(1) << uint(w)
	for i := 0; i < n; i++ {
		row := digits[i*nwin:]
		carry := int64(0)
		for j := 0; j < nwin-1; j++ {
			d := int64(sc.digit(i, j*w, w)) + carry
			carry = 0
			if d > half {
				d -= full
				carry = 1
			}
			row[j] = int32(d)
		}
		row[nwin-1] = int32(carry)
	}
	return digits, nwin
}

// pippengerSigned is the signed-digit bucket kernel: 2^(w-1) buckets per
// window, with negative digits scattering the precomputed base inverse
// instead of the base. mb and inv are flattened Montgomery-domain bases and
// their inverses; digits comes from signedDigits with the same w.
func (k *kernels) pippengerSigned(mb, inv []uint64, n int, digits []int32, nwin, w int, t []uint64) (acc []uint64, ok bool) {
	m := k.m
	mn := m.n
	nbuckets := 1 << uint(w-1)
	buckets := make([]uint64, nbuckets*mn)
	stamp := make([]int, nbuckets+1)
	acc = make([]uint64, mn)
	run := make([]uint64, mn)
	sum := make([]uint64, mn)
	started := false
	for j := nwin - 1; j >= 0; j-- {
		if started {
			for s := 0; s < w; s++ {
				m.mul(acc, acc, acc, t)
			}
		}
		for i := 0; i < n; i++ {
			d := int(digits[i*nwin+j])
			if d == 0 {
				continue
			}
			src := mb
			if d < 0 {
				src, d = inv, -d
			}
			b := buckets[(d-1)*mn : d*mn]
			if stamp[d] == j+1 {
				m.mul(b, b, src[i*mn:(i+1)*mn], t)
			} else {
				copy(b, src[i*mn:(i+1)*mn])
				stamp[d] = j + 1
			}
		}
		if !k.collapseBuckets(buckets, stamp, j, nbuckets, run, sum, t) {
			continue
		}
		if started {
			m.mul(acc, acc, sum, t)
		} else {
			copy(acc, sum)
			started = true
		}
	}
	return acc, started
}

// runPrepared dispatches one shard whose bases arrive with cached inverses:
// Straus up to strausMaxBases, then whichever Pippenger variant's cost model
// is lower. Signed wins on bucket count up to large n; unsigned takes over
// from n = 12,278 on the 128-bit and n = 131,059 on the 220-bit order,
// where the signed kernel's carry window outweighs its halved buckets.
func (k *kernels) runPrepared(mb, inv []uint64, n int, sc *scalars, t []uint64) ([]uint64, bool) {
	if n <= strausMaxBases {
		return k.straus(mb, n, sc, t)
	}
	uw, ucost := pippengerPlan(n, sc.bits)
	sw, scost := pippengerSignedPlan(n, sc.bits)
	if scost < ucost {
		obs.Default().Counter(MetricMultiExpSigned).Inc()
		digits, nwin := sc.signedDigits(sw)
		return k.pippengerSigned(mb, inv, n, digits, nwin, sw, t)
	}
	return k.pippenger(mb, n, sc, uw, t)
}

// PreparedVector is a ciphertext vector fixed for many inner products: the
// commit phase evaluates every instance's proof vector against the same
// Enc(r), so the Montgomery conversion of both components and the batch
// inversion backing signed windows are paid once here instead of per call.
// It is immutable after Prepare and safe for concurrent use.
type PreparedVector struct {
	g          *Group
	n          int
	mbA, mbB   []uint64 // Montgomery-domain A and B components, flattened
	invA, invB []uint64 // their inverses, for signed-digit windows
}

// Prepare builds the cached Montgomery preparation of cts. Components must
// be nonzero mod P (every Encrypt output is); it panics otherwise, like the
// kernels do on malformed protocol state. Callers holding wire-supplied
// ciphertexts must screen them with CheckCiphertexts first.
func (g *Group) Prepare(cts []Ciphertext) *PreparedVector {
	obs.Default().Counter(MetricPreparedVectors).Inc()
	k := g.kern()
	t := k.m.scratch()
	mn := k.m.n
	pv := &PreparedVector{g: g, n: len(cts)}
	pv.mbA = make([]uint64, len(cts)*mn)
	pv.mbB = make([]uint64, len(cts)*mn)
	for i, ct := range cts {
		k.m.toMont(pv.mbA[i*mn:(i+1)*mn], ct.A, t)
		k.m.toMont(pv.mbB[i*mn:(i+1)*mn], ct.B, t)
	}
	pv.invA = make([]uint64, len(cts)*mn)
	pv.invB = make([]uint64, len(cts)*mn)
	k.m.batchInv(pv.invA, pv.mbA, t)
	k.m.batchInv(pv.invB, pv.mbB, t)
	return pv
}

// InnerProductPrepared homomorphically computes Enc(Σ u_i·m_i) against a
// prepared Enc(m): no per-call Montgomery conversion, and signed-digit
// windows at no inversion cost. This is the prover's commitment evaluation
// — the h·|u| term in Figure 3's "Issue responses" row — and the one entry
// into the multi-exponentiation kernels. Zero weights are not compacted —
// their digits are all zero, so the scatter loops skip them — and results
// are identical for every worker count.
func (g *Group) InnerProductPrepared(pv *PreparedVector, f *field.Field, u []field.Element, workers int) (Ciphertext, error) {
	if pv == nil || pv.g != g {
		return Ciphertext{}, errors.New("elgamal: prepared vector belongs to a different group")
	}
	if pv.n != len(u) {
		return Ciphertext{}, errors.New("elgamal: InnerProduct length mismatch")
	}
	if pv.n == 0 {
		return g.One(), nil
	}
	reg := obs.Default()
	reg.Counter(MetricMultiExpBases).Add(int64(2 * pv.n))
	defer reg.StartSpan(MetricMultiExpSpan).End()
	exps := make([]*big.Int, len(u))
	for i := range u {
		exps[i] = f.ToBig(u[i])
	}
	sc := g.reduceScalars(exps)
	k := g.kern()
	t := k.m.scratch()
	out := g.One()
	if acc, ok := k.multiExpPrepared(pv.mbA, pv.invA, pv.n, &sc, workers); ok {
		out.A = k.m.fromMont(acc, t)
	}
	if acc, ok := k.multiExpPrepared(pv.mbB, pv.invB, pv.n, &sc, workers); ok {
		out.B = k.m.fromMont(acc, t)
	}
	return out, nil
}

// multiExpPrepared shards a prepared multi-exponentiation over workers
// goroutines and folds the partial products.
func (k *kernels) multiExpPrepared(mb, inv []uint64, n int, sc *scalars, workers int) ([]uint64, bool) {
	mn := k.m.n
	if workers < 1 {
		workers = 1
	}
	if shards := (n + minShard - 1) / minShard; workers > shards {
		workers = shards
	}
	if workers <= 1 {
		return k.runPrepared(mb, inv, n, sc, k.m.scratch())
	}
	partials := make([][]uint64, workers)
	_ = par.ForEach(context.Background(), workers, workers, func(s int) error {
		lo, hi := n*s/workers, n*(s+1)/workers
		if lo == hi {
			return nil
		}
		sub := scalars{limbs: sc.limbs[lo*sc.ql : hi*sc.ql], ql: sc.ql, bits: sc.bits}
		if acc, ok := k.runPrepared(mb[lo*mn:hi*mn], inv[lo*mn:hi*mn], hi-lo, &sub, k.m.scratch()); ok {
			partials[s] = acc
		}
		return nil
	})
	return k.foldPartials(partials)
}

// foldPartials multiplies per-shard accumulators into one Montgomery-domain
// product; ok=false when every shard was empty (the identity).
func (k *kernels) foldPartials(partials [][]uint64) ([]uint64, bool) {
	t := k.m.scratch()
	var acc []uint64
	for _, p := range partials {
		if p == nil {
			continue
		}
		if acc == nil {
			acc = make([]uint64, k.m.n)
			copy(acc, p)
			continue
		}
		k.m.mul(acc, acc, p, t)
	}
	return acc, acc != nil
}

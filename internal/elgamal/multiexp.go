package elgamal

import (
	"math/big"
	"sync"
)

// This file implements the group-arithmetic kernels behind the prover's
// homomorphic commitment: Straus and Pippenger multi-exponentiation with
// window selection by input size (the signed-digit variant is in signed.go).
// Their one entry point is InnerProductPrepared. All group multiplications
// run in the Montgomery domain (mont.go) on preallocated limb slices, so a
// length-n inner product costs ~2n·(qbits/w) group mults instead of 2n
// independent full-width modexps — the Figure 3 "h·|u|" term this package
// exists to shrink.
//
// Kernel activity is recorded into the process-wide obs registry
// (obs.Default()) under the metric names below, documented in
// docs/PROTOCOL.md.
const (
	// MetricMultiExpBases counts total (base, exponent) pairs processed.
	MetricMultiExpBases = "elgamal.multiexp.bases"
	// MetricMultiExpSpan is the per-call latency histogram; its count is
	// the number of inner products evaluated.
	MetricMultiExpSpan = "elgamal.multiexp"
	// MetricFixedBaseExps counts generator-table exponentiations: two per
	// encrypted element, one per ExpOfField.
	MetricFixedBaseExps = "elgamal.fixedbase.exps"
	// MetricFixedBaseTables counts generator-table builds (one per Group).
	MetricFixedBaseTables = "elgamal.fixedbase.tables"
)

// kernels is a Group's lazily-built kernel state: the Montgomery context
// for P and the generator's fixed-base table. Groups that arrive over the
// wire (gob decodes only the exported P, G, Q) rebuild it on first use; a
// prover, which never encrypts, never builds the table.
type kernels struct {
	m *montCtx

	gonce sync.Once
	gen   *FixedBaseTable // see table.go
}

// kern returns the Group's kernel state, building it on first use.
func (g *Group) kern() *kernels {
	g.konce.Do(func() { g.kernels = &kernels{m: newMontCtx(g.P)} })
	return g.kernels
}

// scalars holds exponents reduced mod Q as fixed-width little-endian limbs,
// ready for windowed digit extraction. All kernels share one reduction pass.
type scalars struct {
	limbs []uint64 // n · ql, flattened
	ql    int      // limbs per scalar
	bits  int      // Q.BitLen()
}

// reduceScalars canonicalizes exps into [0, Q). Exponents already in range
// (the common case: field elements) skip the division.
func (g *Group) reduceScalars(exps []*big.Int) scalars {
	qbits := g.Q.BitLen()
	ql := (qbits + 63) / 64
	sc := scalars{limbs: make([]uint64, len(exps)*ql), ql: ql, bits: qbits}
	var tmp big.Int
	for i, e := range exps {
		if e.Sign() < 0 || e.Cmp(g.Q) >= 0 {
			tmp.Mod(e, g.Q)
			e = &tmp
		}
		copy(sc.limbs[i*ql:], limbsFromBig(e, ql))
	}
	return sc
}

// digit extracts the w-bit window of scalar i starting at bit pos.
func (sc *scalars) digit(i, pos, w int) uint64 {
	limbs := sc.limbs[i*sc.ql : (i+1)*sc.ql]
	idx := pos >> 6
	sh := uint(pos & 63)
	v := limbs[idx] >> sh
	if sh+uint(w) > 64 && idx+1 < len(limbs) {
		v |= limbs[idx+1] << (64 - sh)
	}
	return v & (1<<uint(w) - 1)
}

// pippengerPlan picks the bucket width minimizing the kernel's mult count
// t·(n + 2·2^w + w) for n bases and qbits-bit exponents, and returns the
// minimum so runPrepared can weigh it against the signed-digit plan
// (signed.go).
func pippengerPlan(n, qbits int) (w, cost int) {
	w, cost = 1, int(^uint(0)>>1)
	for cand := 1; cand <= 16; cand++ {
		t := (qbits + cand - 1) / cand
		c := t * (n + 2*(1<<uint(cand)) + cand)
		if c < cost {
			w, cost = cand, c
		}
	}
	return w, cost
}

// strausWindow is the fixed per-base table width of the Straus kernel.
const strausWindow = 4

// strausMaxBases is the auto-selection crossover: below it the Straus
// kernel's per-base tables beat Pippenger's bucket collapse overhead.
const strausMaxBases = 64

// pippenger computes Π bases[i]^exps[i] over the Montgomery-domain bases in
// mb, returning the accumulator in Montgomery form (ok=false: identity).
func (k *kernels) pippenger(mb []uint64, n int, sc *scalars, w int, t []uint64) (acc []uint64, ok bool) {
	m := k.m
	mn := m.n
	nbuckets := 1<<uint(w) - 1
	buckets := make([]uint64, nbuckets*mn)
	stamp := make([]int, nbuckets+1) // stamp[d] == window+1 marks occupancy
	acc = make([]uint64, mn)
	run := make([]uint64, mn)
	sum := make([]uint64, mn)

	nwin := (sc.bits + w - 1) / w
	started := false
	for j := nwin - 1; j >= 0; j-- {
		if started {
			for s := 0; s < w; s++ {
				m.mul(acc, acc, acc, t)
			}
		}
		// Scatter each base into its digit's bucket.
		for i := 0; i < n; i++ {
			d := int(sc.digit(i, j*w, w))
			if d == 0 {
				continue
			}
			b := buckets[(d-1)*mn : d*mn]
			if stamp[d] == j+1 {
				m.mul(b, b, mb[i*mn:(i+1)*mn], t)
			} else {
				copy(b, mb[i*mn:(i+1)*mn])
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

// collapseBuckets folds the current window's Σ d·B_d into sum using the
// running-product trick (a reverse sweep where run accumulates suffix
// products). Shared by the unsigned and signed bucket kernels; stamp[d] ==
// j+1 marks the buckets this window actually filled. Returns false when the
// window was empty.
func (k *kernels) collapseBuckets(buckets []uint64, stamp []int, j, nbuckets int, run, sum, t []uint64) bool {
	m := k.m
	mn := m.n
	runSet, sumSet := false, false
	for d := nbuckets; d >= 1; d-- {
		if stamp[d] == j+1 {
			b := buckets[(d-1)*mn : d*mn]
			if runSet {
				m.mul(run, run, b, t)
			} else {
				copy(run, b)
				runSet = true
			}
		}
		if !runSet {
			continue
		}
		if sumSet {
			m.mul(sum, sum, run, t)
		} else {
			copy(sum, run)
			sumSet = true
		}
	}
	return sumSet
}

// straus computes the same product with per-base windowed tables and shared
// squarings — cheaper than bucketing for small n.
func (k *kernels) straus(mb []uint64, n int, sc *scalars, t []uint64) (acc []uint64, ok bool) {
	m := k.m
	mn := m.n
	const w = strausWindow
	const tabLen = 1<<w - 1
	// tab[(i·tabLen + d-1)·mn : ...] = bases[i]^d in Montgomery form.
	tab := make([]uint64, n*tabLen*mn)
	for i := 0; i < n; i++ {
		base := mb[i*mn : (i+1)*mn]
		row := tab[i*tabLen*mn:]
		copy(row[:mn], base)
		for d := 2; d <= tabLen; d++ {
			m.mul(row[(d-1)*mn:d*mn], row[(d-2)*mn:(d-1)*mn], base, t)
		}
	}
	acc = make([]uint64, mn)
	nwin := (sc.bits + w - 1) / w
	started := false
	for j := nwin - 1; j >= 0; j-- {
		if started {
			for s := 0; s < w; s++ {
				m.mul(acc, acc, acc, t)
			}
		}
		for i := 0; i < n; i++ {
			d := int(sc.digit(i, j*w, w))
			if d == 0 {
				continue
			}
			e := tab[(i*tabLen+d-1)*mn : (i*tabLen+d)*mn]
			if started {
				m.mul(acc, acc, e, t)
			} else {
				copy(acc, e)
				started = true
			}
		}
	}
	return acc, started
}

// MultiExpNaive is the exp-and-multiply reference the kernels are verified
// and benchmarked against: one full-width modexp per base.
func (g *Group) MultiExpNaive(bases, exps []*big.Int) *big.Int {
	if len(bases) != len(exps) {
		panic("elgamal: MultiExpNaive length mismatch")
	}
	acc := big.NewInt(1)
	tmp := new(big.Int)
	for i := range bases {
		tmp.Exp(bases[i], exps[i], g.P)
		acc.Mul(acc, tmp).Mod(acc, g.P)
	}
	return acc
}

// minShard is the smallest per-worker slice worth the goroutine handoff.
const minShard = 32

package elgamal

import (
	"context"
	"errors"
	"math/big"
	"sync"

	"zaatar/internal/field"
	"zaatar/internal/obs"
	"zaatar/internal/par"
)

// This file implements the group-arithmetic kernels behind the homomorphic
// commitment path: Straus and Pippenger multi-exponentiation with automatic
// window selection, and worker-pool sharding of both. All group
// multiplications run in the Montgomery domain (mont.go) on preallocated
// limb slices, so a length-n inner product costs ~2n·(qbits/w) group mults
// instead of 2n independent full-width modexps — the Figure 3 "e·|u|" term
// this package exists to shrink.
//
// Kernel activity is recorded into the process-wide obs registry
// (obs.Default()) under the metric names below, documented in
// docs/PROTOCOL.md.
const (
	// MetricMultiExpCalls counts multi-exponentiation kernel invocations,
	// labeled by entry point (op).
	MetricMultiExpCalls = "elgamal.multiexp.calls"
	// MetricMultiExpBases counts total (base, exponent) pairs processed.
	MetricMultiExpBases = "elgamal.multiexp.bases"
	// MetricMultiExpSpan is the per-call latency histogram.
	MetricMultiExpSpan = "elgamal.multiexp"
	// MetricFixedBaseExps counts fixed-base table exponentiations.
	MetricFixedBaseExps = "elgamal.fixedbase.exps"
	// MetricFixedBaseTables counts fixed-base table builds.
	MetricFixedBaseTables = "elgamal.fixedbase.tables"
)

// kernels is a Group's lazily-built kernel state: the Montgomery context
// for P and the fixed-base table cache. Groups that arrive over the wire
// (gob decodes only the exported P, G, Q) rebuild it on first use.
type kernels struct {
	m *montCtx

	mu     sync.Mutex
	tables []*tableEntry // small MRU cache, see table.go
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
// minimum so run can weigh it against the signed-digit plan (signed.go).
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

// toMontBases converts bases into one flattened Montgomery-domain buffer.
func (k *kernels) toMontBases(bases []*big.Int, t []uint64) []uint64 {
	mn := k.m.n
	out := make([]uint64, len(bases)*mn)
	for i, b := range bases {
		k.m.toMont(out[i*mn:(i+1)*mn], b, t)
	}
	return out
}

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

type multiExpAlgo int

const (
	algoAuto multiExpAlgo = iota
	algoStraus
	algoPippenger
	algoPippengerSigned
)

// multiExp is the shared serial entry point for the exported variants.
func (g *Group) multiExp(bases []*big.Int, sc *scalars, algo multiExpAlgo) *big.Int {
	if len(bases) == 0 {
		return big.NewInt(1)
	}
	k := g.kern()
	t := k.m.scratch()
	mb := k.toMontBases(bases, t)
	acc, ok := k.run(mb, len(bases), sc, algo, t)
	if !ok {
		return big.NewInt(1)
	}
	return k.m.fromMont(acc, t)
}

// run dispatches one shard to the selected kernel. Under algoAuto the two
// Pippenger variants compete on their cost models; with no cached inverses
// the signed plan carries its batch-inversion surcharge, so it only wins
// where halved buckets genuinely outweigh ~3n extra mults (prepared vectors
// drop that surcharge — see runPrepared in signed.go).
func (k *kernels) run(mb []uint64, n int, sc *scalars, algo multiExpAlgo, t []uint64) ([]uint64, bool) {
	if algo == algoStraus || (algo == algoAuto && n <= strausMaxBases) {
		return k.straus(mb, n, sc, t)
	}
	if algo == algoPippengerSigned {
		return k.runSigned(mb, n, sc, t)
	}
	uw, ucost := pippengerPlan(n, sc.bits)
	if algo == algoAuto {
		if _, scost := pippengerSignedPlan(n, sc.bits, false); scost < ucost {
			return k.runSigned(mb, n, sc, t)
		}
	}
	return k.pippenger(mb, n, sc, uw, t)
}

// recordMultiExp counts one kernel invocation, broken out by entry point
// (op ∈ auto, straus, pippenger, signed, parallel, inner_product,
// prepared) so an operator can see which code path drives the kernel load.
func recordMultiExp(op string, n int) obs.Span {
	reg := obs.Default()
	reg.Counter(MetricMultiExpBases).Add(int64(n))
	reg.CounterVec(MetricMultiExpCalls, "op").With(op).Inc()
	return reg.StartSpan(MetricMultiExpSpan)
}

// MultiExp returns Π bases[i]^exps[i] mod P, selecting the kernel by input
// length. Bases must lie in the order-Q subgroup (every ciphertext component
// and generator power does); exponents may be any non-negative integers and
// are reduced mod Q. It panics on length mismatch, like the field kernels.
func (g *Group) MultiExp(bases, exps []*big.Int) *big.Int {
	if len(bases) != len(exps) {
		panic("elgamal: MultiExp length mismatch")
	}
	defer recordMultiExp("auto", len(bases)).End()
	sc := g.reduceScalars(exps)
	return g.multiExp(bases, &sc, algoAuto)
}

// MultiExpStraus forces the Straus (per-base window table) kernel.
func (g *Group) MultiExpStraus(bases, exps []*big.Int) *big.Int {
	if len(bases) != len(exps) {
		panic("elgamal: MultiExp length mismatch")
	}
	defer recordMultiExp("straus", len(bases)).End()
	sc := g.reduceScalars(exps)
	return g.multiExp(bases, &sc, algoStraus)
}

// MultiExpPippenger forces the Pippenger (bucket) kernel.
func (g *Group) MultiExpPippenger(bases, exps []*big.Int) *big.Int {
	if len(bases) != len(exps) {
		panic("elgamal: MultiExp length mismatch")
	}
	defer recordMultiExp("pippenger", len(bases)).End()
	sc := g.reduceScalars(exps)
	return g.multiExp(bases, &sc, algoPippenger)
}

// MultiExpSigned forces the signed-digit Pippenger kernel (signed.go),
// batch-inverting the bases inline. Exists for the ablation benchmark and
// edge-case tests; production callers reach the signed kernel through auto
// selection or a PreparedVector.
func (g *Group) MultiExpSigned(bases, exps []*big.Int) *big.Int {
	if len(bases) != len(exps) {
		panic("elgamal: MultiExp length mismatch")
	}
	defer recordMultiExp("signed", len(bases)).End()
	sc := g.reduceScalars(exps)
	return g.multiExp(bases, &sc, algoPippengerSigned)
}

// MultiExpNaive is the exp-and-multiply reference the kernels are verified
// and benchmarked against: one full-width modexp per base.
func (g *Group) MultiExpNaive(bases, exps []*big.Int) *big.Int {
	if len(bases) != len(exps) {
		panic("elgamal: MultiExp length mismatch")
	}
	acc := big.NewInt(1)
	tmp := new(big.Int)
	for i := range bases {
		tmp.Exp(bases[i], exps[i], g.P)
		acc.Mul(acc, tmp).Mod(acc, g.P)
	}
	return acc
}

// MultiExpParallel shards the product across workers goroutines, each
// running the auto-selected serial kernel on its slice, and folds the
// partial products. Results are identical to MultiExp for any worker count.
func (g *Group) MultiExpParallel(bases, exps []*big.Int, workers int) *big.Int {
	if len(bases) != len(exps) {
		panic("elgamal: MultiExp length mismatch")
	}
	n := len(bases)
	if workers < 1 {
		workers = 1
	}
	if shards := (n + minShard - 1) / minShard; workers > shards {
		workers = shards
	}
	if workers <= 1 {
		return g.MultiExp(bases, exps)
	}
	defer recordMultiExp("parallel", n).End()
	sc := g.reduceScalars(exps)
	k := g.kern()
	partials := make([][]uint64, workers)
	_ = par.ForEach(context.Background(), workers, workers, func(s int) error {
		lo, hi := n*s/workers, n*(s+1)/workers
		if lo == hi {
			return nil
		}
		t := k.m.scratch()
		mb := k.toMontBases(bases[lo:hi], t)
		sub := scalars{limbs: sc.limbs[lo*sc.ql : hi*sc.ql], ql: sc.ql, bits: sc.bits}
		if acc, ok := k.run(mb, hi-lo, &sub, algoAuto, t); ok {
			partials[s] = acc
		}
		return nil
	})
	acc, ok := k.foldPartials(partials)
	if !ok {
		return big.NewInt(1)
	}
	return k.m.fromMont(acc, k.m.scratch())
}

// minShard is the smallest per-worker slice worth the goroutine handoff.
const minShard = 32

// innerProduct gathers the non-zero-weight ciphertext components and runs
// the two multi-exponentiations (A and B columns) over a shared scalar
// reduction.
func (g *Group) innerProduct(cts []Ciphertext, f *field.Field, u []field.Element, workers int) (Ciphertext, error) {
	if len(cts) != len(u) {
		return Ciphertext{}, errors.New("elgamal: InnerProduct length mismatch")
	}
	as := make([]*big.Int, 0, len(u))
	bs := make([]*big.Int, 0, len(u))
	exps := make([]*big.Int, 0, len(u))
	for i := range u {
		if f.IsZero(u[i]) {
			continue
		}
		as = append(as, cts[i].A)
		bs = append(bs, cts[i].B)
		exps = append(exps, f.ToBig(u[i]))
	}
	if len(exps) == 0 {
		return g.One(), nil
	}
	if workers > 1 {
		return Ciphertext{
			A: g.MultiExpParallel(as, exps, workers),
			B: g.MultiExpParallel(bs, exps, workers),
		}, nil
	}
	defer recordMultiExp("inner_product", 2*len(exps)).End()
	sc := g.reduceScalars(exps)
	return Ciphertext{
		A: g.multiExp(as, &sc, algoAuto),
		B: g.multiExp(bs, &sc, algoAuto),
	}, nil
}

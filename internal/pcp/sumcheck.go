package pcp

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"math/big"

	"zaatar/internal/compiler"
	"zaatar/internal/constraint"
	"zaatar/internal/field"
	"zaatar/internal/prg"
)

func init() { Register(sumcheckBackend{}) }

// sumcheckBackend is the GKR/sum-check lane for layered arithmetic circuits
// (Thaler, "Time-Optimal Interactive Proofs for Circuit Evaluation"),
// adapted to this repository's 4-message batched flow. It needs no
// homomorphic commitments: the prover's phase-2 message carries only the
// claimed outputs, and the whole proof rides the phase-4 response as one
// flat element stream.
//
// Soundness story. The interactive GKR rounds are collapsed into a
// transcript argument: every challenge is derived by hashing the batch salt
// (revealed, like the query seed, only after all outputs are in — the same
// barrier the commitment lanes rely on), the instance's claimed outputs,
// and every prover message so far. Binding of the outputs comes from
// message ordering; per-round soundness comes from the field size (the
// round polynomials have degree ≤ 2 over a ≥128-bit field) in the
// random-oracle model. The verifier's work is field arithmetic only — no
// ciphertexts anywhere on this lane.
//
// Per layer d (output layer downward), with the previous layer's values Ṽ
// over b boolean variables, the prover proves
//
//	claim = Σ_{u,v∈{0,1}^b} W̃_d(ĝ,u,v)·Ṽ(u)·Ṽ(v)
//
// where W̃_d is the multilinear extension of the layer's sparse gate terms
// (value[g] = Σ c·prev[u]·prev[v]) and ĝ is the random point carried in
// from the layer above (the output layer uses a transcript-drawn point z
// against the outputs' MLE). The 2b sum-check rounds each ship the round
// polynomial's evaluations at 0, 1, 2; the layer ends with the two claimed
// evaluations Ṽ(u*), Ṽ(v*), merged into the next layer's claim by a random
// linear combination α·Ṽ(u*) + β·Ṽ(v*). At the bottom the verifier
// evaluates the input layer's MLE itself from the instance's inputs.
type sumcheckBackend struct{}

type sumcheckPre struct {
	f    *field.Field
	circ *constraint.LayeredCircuit
}

func (sumcheckBackend) Name() string            { return BackendSumcheck }
func (sumcheckBackend) NeedsCommitment() bool   { return false }
func (sumcheckBackend) ConstructKernel() string { return "kernel.layered.witness" }

func (sumcheckBackend) Precompute(prog *compiler.Program) (Precomputed, error) {
	circ, err := constraint.Layer(prog.Field, prog.Ginger)
	if err != nil {
		return nil, fmt.Errorf("pcp: sumcheck backend unavailable: %w", err)
	}
	return &sumcheckPre{f: prog.Field, circ: circ}, nil
}

// saltLen is the per-batch transcript salt drawn from the query seed's PRG.
const saltLen = 32

func (sumcheckBackend) Queries(pre Precomputed, params Params, rnd io.Reader) (Queries, error) {
	p := pre.(*sumcheckPre)
	var salt [saltLen]byte
	if _, err := io.ReadFull(rnd, salt[:]); err != nil {
		return nil, err
	}
	return &sumcheckQueries{pre: p, salt: salt}, nil
}

// Solve evaluates the layered circuit directly — field multiplications and
// additions only. The witness is the flattened per-layer evaluation; the
// outputs are decoded from the final (output) layer.
func (sumcheckBackend) Solve(pre Precomputed, prog *compiler.Program, inputs []*big.Int) ([]*big.Int, []field.Element, error) {
	p := pre.(*sumcheckPre)
	if len(inputs) != p.circ.NumInputs {
		return nil, nil, fmt.Errorf("pcp: want %d inputs, got %d", p.circ.NumInputs, len(inputs))
	}
	ins := make([]field.Element, len(inputs))
	for i, v := range inputs {
		ins[i] = p.f.FromBig(v)
	}
	vals, err := p.circ.Eval(p.f, ins)
	if err != nil {
		return nil, nil, err
	}
	witness := make([]field.Element, 0, p.circ.WitnessLen())
	for _, layer := range vals {
		witness = append(witness, layer...)
	}
	return prog.DecodeOutputs(vals[len(vals)-1]), witness, nil
}

// BuildProof is pass-through: the real proof is transcript-dependent, so it
// is generated in Answer, after the salt is revealed — mirroring how the
// commitment lanes answer queries only after the seed reveal.
func (sumcheckBackend) BuildProof(pre Precomputed, witness []field.Element) (*Proof, error) {
	p := pre.(*sumcheckPre)
	if len(witness) != p.circ.WitnessLen() {
		return nil, fmt.Errorf("pcp: witness has %d values, circuit wants %d", len(witness), p.circ.WitnessLen())
	}
	return &Proof{U1: witness}, nil
}

func (sumcheckBackend) OracleLens(pre Precomputed) (int, int) { return 0, 0 }

// sumcheckQueries is one batch's transcript salt plus the shared circuit.
type sumcheckQueries struct {
	pre  *sumcheckPre
	salt [saltLen]byte
}

// Lists and Vectors are empty: nothing is committed on this lane.
func (q *sumcheckQueries) Lists() (QueryList, QueryList)                   { return QueryList{}, QueryList{} }
func (q *sumcheckQueries) Vectors() ([][]field.Element, [][]field.Element) { return nil, nil }

// SumcheckProofLen is the exact element count of one instance's proof
// stream: per layer, three evaluations per round (2b rounds against the
// previous layer's b variables) plus the two claimed endpoint evaluations.
func SumcheckProofLen(circ *constraint.LayeredCircuit) int {
	widths := circ.Widths()
	n := 0
	for d := range circ.Layers {
		n += 6*bitsFor(widths[d]) + 2
	}
	return n
}

// bitsFor returns ⌈log₂ n⌉ (0 for n ≤ 1): the number of boolean variables
// indexing a layer of n slots.
func bitsFor(n int) int {
	b := 0
	for 1<<b < n {
		b++
	}
	return b
}

// Answer runs the GKR prover for one instance. proof.U1 is the flattened
// layer evaluation from Solve/BuildProof. A layer costs O(terms + width)
// (Thaler, "Time-Optimal Interactive Proofs for Circuit Evaluation"): the
// gate point enters as one eq table, and each half of the layer's
// sum-check is a product of two tables that halve with every bound
// variable. The tables are allocated once, at the widest layer.
func (q *sumcheckQueries) Answer(proof *Proof) ([]field.Element, []field.Element, error) {
	circ, f := q.pre.circ, q.pre.f
	if len(proof.U1) != circ.WitnessLen() {
		return nil, nil, fmt.Errorf("pcp: witness has %d values, circuit wants %d", len(proof.U1), circ.WitnessLen())
	}
	// Unflatten the per-layer values.
	widths := circ.Widths()
	layers := make([][]field.Element, len(widths))
	off := 0
	for i, w := range widths {
		layers[i] = proof.U1[off : off+w]
		off += w
	}
	outputs := layers[len(layers)-1]

	tr := newTranscript(f, q.salt)
	tr.absorb(outputs...)
	z := tr.challenges(bitsFor(circ.NumOutputs))

	w := circ.Stats().MaxWidth
	gEq := eqTable(f, make([]field.Element, w), z, circ.NumOutputs)
	uEq, vEq := make([]field.Element, w), make([]field.Element, w)
	// One slot past the widest layer: an odd live count pads its last pair
	// with a zero.
	tblA, tblR := make([]field.Element, w+1), make([]field.Element, w+1)

	stream := make([]field.Element, 0, SumcheckProofLen(circ))
	for d := len(circ.Layers) - 1; d >= 0; d-- {
		terms := circ.Layers[d].Terms
		prev := layers[d] // layer below (input layer when d == 0)
		n := len(prev)
		b := bitsFor(n)

		// u-phase over A[x] = Σ_{t:U_t=x} eq(ĝ,G_t)·C_t·prev[V_t]: the
		// boolean sum over v collapses against eq(v, V_t).
		A := tblA[:n]
		clear(A)
		for _, gt := range terms {
			A[gt.U] = f.Add(A[gt.U], f.Mul(f.Mul(gEq[gt.G], gt.C), prev[gt.V]))
		}
		u, vu := proveProduct(f, tr, A, append(tblR[:0], prev...), b, &stream)

		// v-phase over B[y] = Ṽ(u*)·Σ_{t:V_t=y} eq(ĝ,G_t)·C_t·eq(u*,U_t).
		eqTable(f, uEq, u, n)
		B := tblA[:n]
		clear(B)
		for _, gt := range terms {
			B[gt.V] = f.Add(B[gt.V], f.Mul(f.Mul(gEq[gt.G], gt.C), uEq[gt.U]))
		}
		for y := range B {
			B[y] = f.Mul(B[y], vu)
		}
		v, vv := proveProduct(f, tr, B, append(tblR[:0], prev...), b, &stream)

		stream = append(stream, vu, vv)
		tr.absorb(vu, vv)
		if d > 0 {
			alpha, beta := tr.challenge(), tr.challenge()
			gEq = mixEq(f, gEq, alpha, uEq, beta, eqTable(f, vEq, v, n))
		}
	}
	return stream, nil, nil
}

// proveProduct runs b sum-check rounds on Σ_x A(x)·R(x), where A and R
// hold the live entries of two tables that are zero up to 2^b. Each round
// ships the round polynomial's values at 0, 1, 2, binds the lowest
// variable and folds both tables in half; an odd live count is evened
// with one zero slot, which the slices' capacity holds. Returns the bound
// point and R's value there.
func proveProduct(f *field.Field, tr *transcript, A, R []field.Element, b int, stream *[]field.Element) ([]field.Element, field.Element) {
	point := make([]field.Element, 0, b)
	for j := 0; j < b; j++ {
		if len(A)&1 == 1 {
			A, R = append(A, field.Element{}), append(R, field.Element{})
		}
		var p0, p1, p2 field.Element
		for k := 0; k < len(A); k += 2 {
			a0, a1, r0, r1 := A[k], A[k+1], R[k], R[k+1]
			p0 = f.Add(p0, f.Mul(a0, r0))
			p1 = f.Add(p1, f.Mul(a1, r1))
			// At X = 2 a multilinear table reads 2·hi − lo.
			p2 = f.Add(p2, f.Mul(f.Sub(f.Double(a1), a0), f.Sub(f.Double(r1), r0)))
		}
		*stream = append(*stream, p0, p1, p2)
		tr.absorb(p0, p1, p2)
		r := tr.challenge()
		point = append(point, r)
		A, R = FoldMLE(f, A, r), FoldMLE(f, R, r)
	}
	return point, R[0]
}

// Decide runs the GKR verifier for one instance: replay the transcript,
// check every round polynomial against the running claim, finish each layer
// against the wiring MLE, and ground the recursion in the io values. It is
// robust against arbitrary (adversarial) streams: the length is validated
// up front and every read is in bounds.
func (q *sumcheckQueries) Decide(r1, r2 []field.Element, io []field.Element) CheckResult {
	circ, f := q.pre.circ, q.pre.f
	if len(io) != circ.NumInputs+circ.NumOutputs {
		return CheckResult{Reason: "io length mismatch"}
	}
	if len(r2) != 0 {
		return CheckResult{Reason: "unexpected second oracle response"}
	}
	if len(r1) != SumcheckProofLen(circ) {
		return CheckResult{Reason: fmt.Sprintf("proof stream has %d elements, want %d", len(r1), SumcheckProofLen(circ))}
	}
	inputs := io[:circ.NumInputs]
	outputs := io[circ.NumInputs:]

	tr := newTranscript(f, q.salt)
	tr.absorb(outputs...)
	z := tr.challenges(bitsFor(circ.NumOutputs))

	widths := circ.Widths()
	w := circ.Stats().MaxWidth
	gEq := eqTable(f, make([]field.Element, w), z, circ.NumOutputs)
	uEq, vEq := make([]field.Element, w), make([]field.Element, w)
	claim := f.InnerProduct(outputs, gEq)
	inv2 := f.Inv(f.Double(f.One()))

	next := r1
	for d := len(circ.Layers) - 1; d >= 0; d-- {
		terms := circ.Layers[d].Terms
		n := widths[d]
		b := bitsFor(n)

		cur := claim
		u := make([]field.Element, 0, b)
		var v []field.Element
		for j := 0; j < 2*b; j++ {
			p0, p1, p2 := next[0], next[1], next[2]
			next = next[3:]
			if !f.Equal(f.Add(p0, p1), cur) {
				return CheckResult{Reason: fmt.Sprintf("sum-check round claim mismatch (layer %d, round %d)", d, j)}
			}
			tr.absorb(p0, p1, p2)
			r := tr.challenge()
			if j < b {
				u = append(u, r)
			} else {
				v = append(v, r)
			}
			cur = evalDeg2(f, inv2, p0, p1, p2, r)
		}
		vu, vv := next[0], next[1]
		next = next[2:]

		// Final layer check: cur must equal W̃(ĝ,u*,v*)·Ṽ(u*)·Ṽ(v*), with
		// the wiring MLE summed over the sparse gate terms from eq tables.
		uEq, vEq = eqTable(f, uEq, u, n), eqTable(f, vEq, v, n)
		var wire field.Element
		for _, gt := range terms {
			wire = f.Add(wire, f.Mul(f.Mul(gEq[gt.G], gt.C), f.Mul(uEq[gt.U], vEq[gt.V])))
		}
		if !f.Equal(cur, f.Mul(wire, f.Mul(vu, vv))) {
			return CheckResult{Reason: fmt.Sprintf("wiring check failed (layer %d)", d)}
		}
		tr.absorb(vu, vv)

		if d == 0 {
			// Ground in the input layer the verifier knows: [1, inputs...].
			in := make([]field.Element, n)
			in[0] = f.One()
			copy(in[1:], inputs)
			if !f.Equal(vu, f.InnerProduct(in, uEq)) || !f.Equal(vv, f.InnerProduct(in, vEq)) {
				return CheckResult{Reason: "input layer evaluation mismatch"}
			}
			break
		}
		alpha, beta := tr.challenge(), tr.challenge()
		gEq = mixEq(f, gEq, alpha, uEq, beta, vEq)
		claim = f.Add(f.Mul(alpha, vu), f.Mul(beta, vv))
	}
	return CheckResult{OK: true}
}

// evalDeg2 interpolates the degree-≤2 polynomial through (0,p0), (1,p1),
// (2,p2) at r, given inv2 = 1/2:
//
//	p(r) = p0·(r−1)(r−2)/2 − p1·r(r−2) + p2·r(r−1)/2
//	     = (r−1)·(p0·(r−2) + p2·r)/2 − p1·r(r−2)
func evalDeg2(f *field.Field, inv2, p0, p1, p2, r field.Element) field.Element {
	rm1 := f.Sub(r, f.One())
	rm2 := f.Sub(rm1, f.One())
	even := f.Mul(f.Mul(rm1, f.Add(f.Mul(p0, rm2), f.Mul(p2, r))), inv2)
	return f.Sub(even, f.Mul(p1, f.Mul(r, rm2)))
}

// FoldMLE binds the lowest variable of a restricted MLE table to r in
// place and returns the halved slice: R'[k] = (1−r)·R[2k] + r·R[2k+1].
// The table always has an even length (proveProduct evens an odd one with
// a zero slot), so the pair loop covers it exactly with no tail, in the
// single-multiplication form R[2k] + r·(R[2k+1]−R[2k]) — half the field
// multiplications of the textbook fold in the prover's round loop.
func FoldMLE(f *field.Field, R []field.Element, r field.Element) []field.Element {
	half := len(R) >> 1
	for k := 0; k < half; k++ {
		a0 := R[2*k]
		R[k] = f.Add(a0, f.Mul(r, f.Sub(R[2*k+1], a0)))
	}
	return R[:half]
}

// FoldMLETwoMul is the textbook two-multiplication fold, kept as the
// equivalence and ablation reference for FoldMLE
// (BenchmarkAblationMLEFold measures the gap).
func FoldMLETwoMul(f *field.Field, R []field.Element, r field.Element) []field.Element {
	half := len(R) >> 1
	oneMinusR := f.Sub(f.One(), r)
	for k := 0; k < half; k++ {
		R[k] = f.Add(f.Mul(oneMinusR, R[2*k]), f.Mul(r, R[2*k+1]))
	}
	return R[:half]
}

// eqTable writes eq(point, i) for i < n into dst and returns dst[:n],
// with i's bits read least-significant-first — the variable order the
// round folds bind. It splits on the highest variable first and keeps only
// the prefix that the n live entries descend from, so the cost is O(n),
// not O(2^len(point)). n must be in [1, 2^len(point)].
func eqTable(f *field.Field, dst, point []field.Element, n int) []field.Element {
	dst = dst[:n]
	dst[0] = f.One()
	m := 1
	for j := len(point) - 1; j >= 0; j-- {
		next := (n + 1<<j - 1) >> j
		pj := point[j]
		// In place, top down: entry k is read before 2k and 2k+1 are written.
		for k := m - 1; k >= 0; k-- {
			t := dst[k]
			// t·(1−pj) = t − t·pj: one multiplication per split, like FoldMLE.
			hi := f.Mul(t, pj)
			if 2*k+1 < next {
				dst[2*k+1] = hi
			}
			dst[2*k] = f.Sub(t, hi)
		}
		m = next
	}
	return dst
}

// mixEq sets dst[i] = α·x[i] + β·y[i] over y's length and returns that
// prefix: the next layer's gate table, eq-weighted for the claim
// α·Ṽ(u*) + β·Ṽ(v*).
func mixEq(f *field.Field, dst []field.Element, alpha field.Element, x []field.Element, beta field.Element, y []field.Element) []field.Element {
	dst = dst[:len(y)]
	for i := range y {
		dst[i] = f.Add(f.Mul(alpha, x[i]), f.Mul(beta, y[i]))
	}
	return dst
}

// transcript is the deterministic challenge chain shared by prover and
// verifier: a SHA-256 running state absorbing every message, with
// challenges drawn from a ChaCha PRG keyed by the current state.
type transcript struct {
	f     *field.Field
	state [32]byte
	ctr   uint64
}

func newTranscript(f *field.Field, salt [saltLen]byte) *transcript {
	t := &transcript{f: f}
	h := sha256.New()
	h.Write([]byte("zaatar/sumcheck/v1"))
	h.Write(salt[:])
	h.Sum(t.state[:0])
	return t
}

func (t *transcript) absorb(els ...field.Element) {
	h := sha256.New()
	h.Write(t.state[:])
	var buf [8]byte
	for _, e := range els {
		for _, limb := range e {
			binary.LittleEndian.PutUint64(buf[:], limb)
			h.Write(buf[:])
		}
	}
	h.Sum(t.state[:0])
}

func (t *transcript) challenge() field.Element {
	src := prg.NewFromSeed(t.state[:], t.ctr)
	t.ctr++
	return t.f.Rand(src)
}

func (t *transcript) challenges(n int) []field.Element {
	out := make([]field.Element, n)
	for i := range out {
		out[i] = t.challenge()
	}
	return out
}

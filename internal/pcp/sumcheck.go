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
// layer evaluation from Solve/BuildProof.
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

	stream := make([]field.Element, 0, SumcheckProofLen(circ))
	point := [][]field.Element{z} // eq points against the current layer's gate index
	coeff := []field.Element{f.One()}
	for d := len(circ.Layers) - 1; d >= 0; d-- {
		terms := circ.Layers[d].Terms
		prev := layers[d] // layer below (input layer when d == 0)
		b := bitsFor(widths[d])

		// κ_t folds the gate-index MLE into a per-term scalar.
		kappa := make([]field.Element, len(terms))
		for t, gt := range terms {
			s := f.Zero()
			for i, pt := range point {
				s = f.Add(s, f.Mul(coeff[i], eqAt(f, pt, gt.G)))
			}
			kappa[t] = f.Mul(s, gt.C)
		}

		u, vu := proveHalf(f, tr, terms, kappa, prev, b, &stream, false)
		// After the u-phase each κ carries eq(u*, u_t); scale by Ṽ(u*) once
		// and run the v-phase.
		for t := range kappa {
			kappa[t] = f.Mul(kappa[t], vu)
		}
		v, vv := proveHalf(f, tr, terms, kappa, prev, b, &stream, true)
		stream = append(stream, vu, vv)
		tr.absorb(vu, vv)
		if d > 0 {
			alpha, beta := tr.challenge(), tr.challenge()
			point = [][]field.Element{u, v}
			coeff = []field.Element{alpha, beta}
		}
	}
	return stream, nil, nil
}

// proveHalf runs b sum-check rounds binding one operand's variables (the
// u-phase when vPhase is false, the v-phase otherwise). kappa carries each
// term's accumulated scalar and is updated in place with the eq factors of
// the drawn challenges. Returns the bound point and the restricted table's
// final value Ṽ(point).
//
// During the u-phase each term's untouched operand contributes the plain
// value prev[v_t] (the boolean sum over v collapses against eq(v, v_t));
// during the v-phase that role is played by Ṽ(u*), already folded into
// kappa by the caller — so the per-term companion factor is 1.
func proveHalf(f *field.Field, tr *transcript, terms []constraint.GateTerm, kappa []field.Element, prev []field.Element, b int, stream *[]field.Element, vPhase bool) ([]field.Element, field.Element) {
	// Restricted table over the previous layer's values, padded to 2^b.
	R := make([]field.Element, 1<<b)
	copy(R, prev)

	// opIdx[t] is the operand index this phase binds; fv[t] the companion
	// factor (prev[v_t] in the u-phase, 1 in the v-phase since Ṽ(u*) is in
	// kappa already).
	opIdx := make([]int, len(terms))
	fv := make([]field.Element, len(terms))
	one := f.One()
	for t, gt := range terms {
		if vPhase {
			opIdx[t] = gt.V
			fv[t] = one
		} else {
			opIdx[t] = gt.U
			fv[t] = prev[gt.V]
		}
	}

	bound := make([]field.Element, 0, b)
	for j := 0; j < b; j++ {
		var p0, p1, p2 field.Element
		for t := range terms {
			s := opIdx[t] >> j
			base := f.Mul(kappa[t], fv[t])
			if f.IsZero(base) {
				continue
			}
			k := (s >> 1) << 1
			a0, a1 := R[k], R[k|1]
			if s&1 == 0 {
				// eq(X,0) = 1−X: contributes at X=0 and X=2.
				p0 = f.Add(p0, f.Mul(base, a0))
				// (1−2)·((1−2)a0 + 2a1) = a0 − 2a1
				p2 = f.Add(p2, f.Mul(base, f.Sub(a0, f.Double(a1))))
			} else {
				// eq(X,1) = X: contributes at X=1 and X=2.
				p1 = f.Add(p1, f.Mul(base, a1))
				// 2·((1−2)a0 + 2a1) = 4a1 − 2a0
				p2 = f.Add(p2, f.Mul(base, f.Sub(f.Double(f.Double(a1)), f.Double(a0))))
			}
		}
		*stream = append(*stream, p0, p1, p2)
		tr.absorb(p0, p1, p2)
		r := tr.challenge()
		bound = append(bound, r)
		// Fold the table on the current (lowest) variable.
		R = FoldMLE(f, R, r)
		oneMinusR := f.Sub(one, r)
		// Accumulate the eq factor on each term.
		for t := range terms {
			if (opIdx[t]>>j)&1 == 1 {
				kappa[t] = f.Mul(kappa[t], r)
			} else {
				kappa[t] = f.Mul(kappa[t], oneMinusR)
			}
		}
	}
	return bound, R[0]
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
	claim := evalMLE(f, outputs, z)

	widths := circ.Widths()
	next := r1
	point := [][]field.Element{z}
	coeff := []field.Element{f.One()}
	for d := len(circ.Layers) - 1; d >= 0; d-- {
		terms := circ.Layers[d].Terms
		b := bitsFor(widths[d])

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
			cur = evalDeg2(f, p0, p1, p2, r)
		}
		vu, vv := next[0], next[1]
		next = next[2:]

		// Final layer check: cur must equal W̃(ĝ,u*,v*)·Ṽ(u*)·Ṽ(v*), with
		// the wiring MLE evaluated directly from the sparse gate terms.
		var w field.Element
		for _, gt := range terms {
			s := f.Zero()
			for i, pt := range point {
				s = f.Add(s, f.Mul(coeff[i], eqAt(f, pt, gt.G)))
			}
			s = f.Mul(s, f.Mul(gt.C, f.Mul(eqAt(f, u, gt.U), eqAt(f, v, gt.V))))
			w = f.Add(w, s)
		}
		if !f.Equal(cur, f.Mul(w, f.Mul(vu, vv))) {
			return CheckResult{Reason: fmt.Sprintf("wiring check failed (layer %d)", d)}
		}
		tr.absorb(vu, vv)

		if d == 0 {
			// Ground in the input layer the verifier knows: [1, inputs...].
			in := make([]field.Element, circ.NumInputs+1)
			in[0] = f.One()
			copy(in[1:], inputs)
			if !f.Equal(vu, evalMLE(f, in, u)) || !f.Equal(vv, evalMLE(f, in, v)) {
				return CheckResult{Reason: "input layer evaluation mismatch"}
			}
			break
		}
		alpha, beta := tr.challenge(), tr.challenge()
		point = [][]field.Element{u, v}
		coeff = []field.Element{alpha, beta}
		claim = f.Add(f.Mul(alpha, vu), f.Mul(beta, vv))
	}
	return CheckResult{OK: true}
}

// evalDeg2 interpolates the degree-≤2 polynomial through (0,p0), (1,p1),
// (2,p2) at r:
//
//	p(r) = p0·(r−1)(r−2)/2 − p1·r(r−2) + p2·r(r−1)/2
func evalDeg2(f *field.Field, p0, p1, p2, r field.Element) field.Element {
	one := f.One()
	two := f.Double(one)
	rm1 := f.Sub(r, one)
	rm2 := f.Sub(r, two)
	inv2 := f.Inv(two)
	t0 := f.Mul(p0, f.Mul(f.Mul(rm1, rm2), inv2))
	t1 := f.Neg(f.Mul(p1, f.Mul(r, rm2)))
	t2 := f.Mul(p2, f.Mul(f.Mul(r, rm1), inv2))
	return f.Add(t0, f.Add(t1, t2))
}

// FoldMLE binds the lowest variable of a restricted MLE table to r in
// place and returns the halved slice: R'[k] = (1−r)·R[2k] + r·R[2k+1].
// The table is always padded to a power of two, so the pair loop covers it
// exactly with no tail — which unlocks the single-multiplication form
// R[2k] + r·(R[2k+1]−R[2k]), halving the field multiplications in the
// round-fold inner loop (the sum-check prover's hottest path after the
// round-polynomial sums).
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

// eqAt evaluates the multilinear equality polynomial eq(point, idx) with
// idx's bits read least-significant-first — the same variable order the
// round folds use.
func eqAt(f *field.Field, point []field.Element, idx int) field.Element {
	out := f.One()
	for j, pj := range point {
		if (idx>>j)&1 == 1 {
			out = f.Mul(out, pj)
		} else {
			out = f.Mul(out, f.Sub(f.One(), pj))
		}
	}
	return out
}

// evalMLE evaluates the multilinear extension of vals (padded with zeros to
// 2^len(point)) at point, in O(2^b) via the eq weight table.
func evalMLE(f *field.Field, vals []field.Element, point []field.Element) field.Element {
	tbl := []field.Element{f.One()}
	for j := len(point) - 1; j >= 0; j-- {
		pj := point[j]
		next := make([]field.Element, 2*len(tbl))
		for k, t := range tbl {
			// t·(1−pj) = t − t·pj: one multiplication per split, like FoldMLE.
			hi := f.Mul(t, pj)
			next[2*k+1] = hi
			next[2*k] = f.Sub(t, hi)
		}
		tbl = next
	}
	// tbl is indexed with point[0] as the lowest bit (LSB-first), matching
	// eqAt: entry i = Π_j (i_j ? p_j : 1−p_j).
	out := f.Zero()
	for i, v := range vals {
		if !f.IsZero(v) {
			out = f.Add(out, f.Mul(v, tbl[i]))
		}
	}
	return out
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

package pcp

import (
	"fmt"

	"zaatar/internal/constraint"
	"zaatar/internal/field"
)

// answerReference is the O(S·log S) prover that Answer replaced, kept as the
// differential reference for FuzzSumcheckProver: κ_t folds the gate point
// into each term with one refEqAt per point, and refProveHalf walks every term
// in each of a layer's 2b rounds.
func (q *sumcheckQueries) answerReference(proof *Proof) ([]field.Element, error) {
	circ, f := q.pre.circ, q.pre.f
	if len(proof.U1) != circ.WitnessLen() {
		return nil, fmt.Errorf("pcp: witness has %d values, circuit wants %d", len(proof.U1), circ.WitnessLen())
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
				s = f.Add(s, f.Mul(coeff[i], refEqAt(f, pt, gt.G)))
			}
			kappa[t] = f.Mul(s, gt.C)
		}

		u, vu := refProveHalf(f, tr, terms, kappa, prev, b, &stream, false)
		// After the u-phase each κ carries eq(u*, u_t); scale by Ṽ(u*) once
		// and run the v-phase.
		for t := range kappa {
			kappa[t] = f.Mul(kappa[t], vu)
		}
		v, vv := refProveHalf(f, tr, terms, kappa, prev, b, &stream, true)
		stream = append(stream, vu, vv)
		tr.absorb(vu, vv)
		if d > 0 {
			alpha, beta := tr.challenge(), tr.challenge()
			point = [][]field.Element{u, v}
			coeff = []field.Element{alpha, beta}
		}
	}
	return stream, nil
}

// refProveHalf runs b sum-check rounds binding one operand's variables (the
// u-phase when vPhase is false, the v-phase otherwise). kappa carries each
// term's accumulated scalar and is updated in place with the eq factors of
// the drawn challenges. Returns the bound point and the restricted table's
// final value Ṽ(point).
//
// During the u-phase each term's untouched operand contributes the plain
// value prev[v_t] (the boolean sum over v collapses against eq(v, v_t));
// during the v-phase that role is played by Ṽ(u*), already folded into
// kappa by the caller — so the per-term companion factor is 1.
func refProveHalf(f *field.Field, tr *transcript, terms []constraint.GateTerm, kappa []field.Element, prev []field.Element, b int, stream *[]field.Element, vPhase bool) ([]field.Element, field.Element) {
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

// refEqAt evaluates the multilinear equality polynomial eq(point, idx) with
// idx's bits read least-significant-first — the same variable order the
// round folds use.
func refEqAt(f *field.Field, point []field.Element, idx int) field.Element {
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

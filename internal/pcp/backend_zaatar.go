package pcp

import (
	"io"
	"math/big"

	"zaatar/internal/compiler"
	"zaatar/internal/field"
	"zaatar/internal/qap"
)

func init() { Register(zaatarBackend{}) }

// zaatarBackend adapts the QAP-based linear PCP (Figure 10) to the Backend
// seam. The precomputation is the QAP encoding — the sparse rows plus
// O(|C|) evaluation-basis tables — shared by prover and verifier.
type zaatarBackend struct{}

type zaatarPre struct {
	q *qap.QAP
}

func (zaatarBackend) Name() string            { return BackendZaatar }
func (zaatarBackend) NeedsCommitment() bool   { return true }
func (zaatarBackend) ConstructKernel() string { return "kernel.ntt.quotient" }

func (zaatarBackend) Precompute(prog *compiler.Program) (Precomputed, error) {
	q, err := qap.New(prog.Field, prog.Quad)
	if err != nil {
		return nil, err
	}
	return &zaatarPre{q: q}, nil
}

func (zaatarBackend) Queries(pre Precomputed, params Params, rnd io.Reader) (Queries, error) {
	z, err := NewZaatar(pre.(*zaatarPre).q, params, rnd)
	if err != nil {
		return nil, err
	}
	return linearQueries{f: z.Q.F, q1: z.Z, q2: z.H, decide: z.Check}, nil
}

func (zaatarBackend) Solve(pre Precomputed, prog *compiler.Program, inputs []*big.Int) ([]*big.Int, []field.Element, error) {
	return prog.SolveQuad(inputs)
}

func (zaatarBackend) BuildProof(pre Precomputed, witness []field.Element) (*Proof, error) {
	z, h, err := BuildProof(pre.(*zaatarPre).q, witness)
	if err != nil {
		return nil, err
	}
	return &Proof{U1: z, U2: h}, nil
}

func (zaatarBackend) OracleLens(pre Precomputed) (int, int) {
	q := pre.(*zaatarPre).q
	return q.NZ, q.NC + 1
}

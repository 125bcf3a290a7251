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
	return zaatarQueries{z}, nil
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

type zaatarQueries struct {
	z *ZaatarPCP
}

func (q zaatarQueries) Vectors() ([][]field.Element, [][]field.Element) {
	return q.z.ZQueries, q.z.HQueries
}

func (q zaatarQueries) Answer(proof *Proof) ([]field.Element, []field.Element, error) {
	f := q.z.Q.F
	return Answer(f, proof.U1, q.z.ZQueries), Answer(f, proof.U2, q.z.HQueries), nil
}

func (q zaatarQueries) Decide(r1, r2 []field.Element, io []field.Element) CheckResult {
	return q.z.Check(r1, r2, io)
}

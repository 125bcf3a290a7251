package pcp

import (
	"io"
	"math/big"

	"zaatar/internal/compiler"
	"zaatar/internal/constraint"
	"zaatar/internal/field"
)

func init() { Register(gingerBackend{}) }

// gingerBackend adapts the classical quadratic linear PCP (§2.2). There is
// no per-program precomputation beyond validating the batching
// precondition and the materialization cap — failing at Precompute time
// (rather than on the first batch) lets a service reject an oversized
// program in the hello phase.
type gingerBackend struct{}

type gingerPre struct {
	f  *field.Field
	gs *constraint.GingerSystem
}

func (gingerBackend) Name() string            { return BackendGinger }
func (gingerBackend) NeedsCommitment() bool   { return true }
func (gingerBackend) ConstructKernel() string { return "kernel.tensor" }

func (gingerBackend) Precompute(prog *compiler.Program) (Precomputed, error) {
	if err := ValidateGingerForPCP(prog.Ginger); err != nil {
		return nil, err
	}
	return &gingerPre{f: prog.Field, gs: prog.Ginger}, nil
}

func (gingerBackend) Queries(pre Precomputed, params Params, rnd io.Reader) (Queries, error) {
	p := pre.(*gingerPre)
	g, err := NewGinger(p.f, p.gs, params, rnd)
	if err != nil {
		return nil, err
	}
	return linearQueries{f: g.F, q1: g.Z1, q2: g.Z2, decide: g.Check}, nil
}

func (gingerBackend) Solve(pre Precomputed, prog *compiler.Program, inputs []*big.Int) ([]*big.Int, []field.Element, error) {
	return prog.SolveGinger(inputs)
}

func (gingerBackend) BuildProof(pre Precomputed, witness []field.Element) (*Proof, error) {
	p := pre.(*gingerPre)
	z, zz, err := BuildGingerProof(p.f, p.gs, witness)
	if err != nil {
		return nil, err
	}
	return &Proof{U1: z, U2: zz}, nil
}

func (gingerBackend) OracleLens(pre Precomputed) (int, int) {
	nz := pre.(*gingerPre).gs.NumUnbound()
	return nz, nz * nz
}

package main

import (
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"fmt"
	"math/big"
	"math/rand"
)

// The program texts, input generators and native references below are the
// benchmark's own frozen copies. They do not import internal/benchprogs, so
// resizing the paper-figure harness cannot move these workloads.

//go:embed progs/*.zr
var progFS embed.FS

// mode is how a workload reaches the prover.
type mode int

const (
	local   mode = iota // in-process zaatar.RunContext
	session             // one zaatar.Serve on loopback TCP, one kept-alive zaatar.Dial
	farm2               // zaatar.DialFarm over two loopback zaatar.ServeWorkers
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	Name string
	Why  string // one line, repeated in BENCHMARK.json

	File    string // program text under progs/
	SHA256  string // of the program text; a mismatch aborts the run
	F220    bool   // compile over the 220-bit field (the 4-limb arithmetic and the larger group)
	Backend string
	Beta    int // instances per batch
	Mode    mode

	// Gen draws one instance's inputs; Ref computes its outputs natively.
	Gen func(rng *rand.Rand) []*big.Int
	Ref func(in []*big.Int) []int64
}

var workloads = []*workload{
	{
		Name:    "apsp.local",
		Why:     "Floyd-Warshall on the Zaatar backend, in process: commitment, setup, decommit and respond with transport, farm and store idle, so a kernel change shows undiluted",
		File:    "progs/apsp.zr",
		SHA256:  "4ed19009dd5eae842bf72029291f7f1de4bd94d6701338be0bfc7b47754a8cdd",
		Backend: "zaatar",
		Beta:    4,
		Mode:    local,
		Gen:     apspGen,
		Ref:     apspRef,
	},
	{
		Name:    "bisect.session",
		Why:     "bisection over the 220-bit field through one kept-alive TCP session: the same four phases via transport, and the only Zaatar-backend workload on 4-limb arithmetic",
		File:    "progs/bisect.zr",
		SHA256:  "aabf081986d1eba8d8daf450eb2db46f7438381e9ecf7c69845dcc6ea8838229",
		F220:    true,
		Backend: "zaatar",
		Beta:    4,
		Mode:    session,
		Gen:     bisectGen,
		Ref:     bisectRef,
	},
	{
		Name:    "bisect.farm2",
		Why:     "the bisect.session program and batches sharded over two workers: a verifier forked and re-keyed per shard, so its batch time minus bisect.session's is the farm layer",
		File:    "progs/bisect.zr",
		SHA256:  "aabf081986d1eba8d8daf450eb2db46f7438381e9ecf7c69845dcc6ea8838229",
		F220:    true,
		Backend: "zaatar",
		Beta:    4,
		Mode:    farm2,
		Gen:     bisectGen,
		Ref:     bisectRef,
	},
	{
		Name:    "matmul.sumcheck",
		Why:     "matrix-multiply chain on the sum-check backend, in process: no ElGamal, commitment or PRG work, so a commitment optimisation must show no change here and a field change shows everywhere",
		File:    "progs/matmul.zr",
		SHA256:  "a19b07094e9db4948a2d94eb64f4db87ba90d7a940b8dcbe6c47a9fa0c08be1d",
		Backend: "sumcheck",
		Beta:    8,
		Mode:    local,
		Gen:     matmulGen,
		Ref:     matmulRef,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// source returns the workload's program text after checking it against the
// recorded digest.
func (w *workload) source() (string, error) {
	text, err := progFS.ReadFile(w.File)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(text)
	if got := hex.EncodeToString(sum[:]); got != w.SHA256 {
		return "", fmt.Errorf("%s: sha256 is %s, the benchmark was defined on %s", w.File, got, w.SHA256)
	}
	return string(text), nil
}

func bigs(vs []int64) []*big.Int {
	out := make([]*big.Int, len(vs))
	for i, v := range vs {
		out[i] = big.NewInt(v)
	}
	return out
}

func int64s(vs []*big.Int) []int64 {
	out := make([]int64, len(vs))
	for i, v := range vs {
		out[i] = v.Int64()
	}
	return out
}

// apsp.zr: M nodes, edge matrix in row order, apspInf marks a missing edge.
const (
	apspM   = 3
	apspInf = 1 << 20
)

func apspGen(rng *rand.Rand) []*big.Int {
	e := make([]int64, apspM*apspM)
	for i := 0; i < apspM; i++ {
		for j := 0; j < apspM; j++ {
			switch {
			case i == j:
				e[i*apspM+j] = 0
			case rng.Intn(3) == 0:
				e[i*apspM+j] = int64(1 + rng.Intn(100))
			default:
				e[i*apspM+j] = apspInf
			}
		}
	}
	return bigs(e)
}

func apspRef(in []*big.Int) []int64 {
	d := int64s(in)
	for k := 0; k < apspM; k++ {
		for i := 0; i < apspM; i++ {
			for j := 0; j < apspM; j++ {
				if via := d[i*apspM+k] + d[k*apspM+j]; via < d[i*apspM+j] {
					d[i*apspM+j] = via
				}
			}
		}
	}
	return d
}

// bisect.zr: M quadratics a·x²+b·x+c, each with a sign change inside
// [lo, lo+2^L]; inputs are laid out a[M], b[M], c[M], lo[M].
const (
	bisectM = 4
	bisectL = 6
)

func bisectGen(rng *rand.Rand) []*big.Int {
	const width = 1 << bisectL
	in := make([]int64, 4*bisectM)
	for i := 0; i < bisectM; i++ {
		a := int64(rng.Intn(3))
		b := int64(1 + rng.Intn(20))
		lo := int64(rng.Intn(100)) - 50
		// c puts p(lo) below zero by less than b·width/2, so p(lo+width) is above.
		c := -(a*lo*lo + b*lo) - int64(1+rng.Intn(int(b*width/2)))
		in[i], in[bisectM+i], in[2*bisectM+i], in[3*bisectM+i] = a, b, c, lo
	}
	return bigs(in)
}

func bisectRef(in []*big.Int) []int64 {
	v := int64s(in)
	roots := make([]int64, bisectM)
	for i := range roots {
		a, b, c, x := v[i], v[bisectM+i], v[2*bisectM+i], v[3*bisectM+i]
		for step := int64(1) << (bisectL - 1); step > 0; step >>= 1 {
			if mid := x + step; a*mid*mid+b*mid+c < 0 {
				x = mid
			}
		}
		roots[i] = x
	}
	return roots
}

// matmul.zr: T₁ = A·B, Tₗ = Tₗ₋₁·A for l up to DEPTH, N×N matrices with
// entries below 8; inputs are A then B in row order.
const (
	matmulN     = 8
	matmulDepth = 6
)

func matmulGen(rng *rand.Rand) []*big.Int {
	in := make([]int64, 2*matmulN*matmulN)
	for i := range in {
		in[i] = int64(rng.Intn(8))
	}
	return bigs(in)
}

func matmulRef(in []*big.Int) []int64 {
	const n = matmulN
	v := int64s(in)
	a, b := v[:n*n], v[n*n:]
	mul := func(x, y []int64) []int64 {
		out := make([]int64, n*n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				for k := 0; k < n; k++ {
					out[i*n+j] += x[i*n+k] * y[k*n+j]
				}
			}
		}
		return out
	}
	t := mul(a, b)
	for l := 2; l <= matmulDepth; l++ {
		t = mul(t, a)
	}
	return t
}

package benchprogs

import (
	"math/big"
	"math/rand"
	"testing"

	"zaatar/internal/compiler"
	"zaatar/internal/constraint"
	"zaatar/internal/pcp"
	"zaatar/internal/prg"
	"zaatar/internal/qap"
)

// TestBenchmarksMatchReference compiles each benchmark and checks the
// compiled semantics against the native Go reference on random inputs, and
// that the produced witnesses satisfy both constraint systems.
func TestBenchmarksMatchReference(t *testing.T) {
	for _, b := range Small() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			p, err := compiler.Compile(b.Field, b.Source)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			rng := rand.New(rand.NewSource(42))
			for trial := 0; trial < 5; trial++ {
				in := b.GenInputs(rng)
				want := b.Reference(in)
				got, wq, err := p.SolveQuad(in)
				if err != nil {
					t.Fatalf("solve: %v", err)
				}
				if len(got) != len(want) {
					t.Fatalf("output count %d, want %d", len(got), len(want))
				}
				for i := range want {
					if got[i].Cmp(want[i]) != 0 {
						t.Fatalf("trial %d output %d (%s): got %v, want %v",
							trial, i, p.OutputNames[i], got[i], want[i])
					}
				}
				if err := p.Quad.Check(b.Field, wq); err != nil {
					t.Fatalf("quad witness: %v", err)
				}
				if trial == 0 {
					_, wg, err := p.SolveGinger(in)
					if err != nil {
						t.Fatal(err)
					}
					if err := p.Ginger.Check(b.Field, wg); err != nil {
						t.Fatalf("ginger witness: %v", err)
					}
				}
			}
		})
	}
}

// TestBenchmarksEndToEndPCP runs the full Zaatar PCP for each benchmark at
// small size: compile → solve → prove → query → verify.
func TestBenchmarksEndToEndPCP(t *testing.T) {
	for _, b := range Small() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			p, err := compiler.Compile(b.Field, b.Source)
			if err != nil {
				t.Fatal(err)
			}
			q, err := qap.New(b.Field, p.Quad)
			if err != nil {
				t.Fatal(err)
			}
			// The cost model charges QuadSystem.NNZ for what qap stores.
			if got, want := p.Quad.NNZ(b.Field), q.NNZ(); got != want {
				t.Fatalf("QuadSystem.NNZ = %d, qap NNZ = %d", got, want)
			}
			v, err := pcp.NewZaatar(q, pcp.TestParams(), prg.NewFromSeed([]byte(b.Name), 0))
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(1))
			in := b.GenInputs(rng)
			outs, w, err := p.SolveQuad(in)
			if err != nil {
				t.Fatal(err)
			}
			z, h, err := pcp.BuildProof(q, w)
			if err != nil {
				t.Fatal(err)
			}
			io, err := p.IOValues(in, outs)
			if err != nil {
				t.Fatal(err)
			}
			res := v.Check(v.Z.Answer(b.Field, z), v.H.Answer(b.Field, h), io)
			if !res.OK {
				t.Fatalf("honest prover rejected: %s", res.Reason)
			}

			// A lying prover that perturbs one output is caught.
			badOuts := b.Reference(in)
			badOuts[0].Add(badOuts[0], big.NewInt(1))
			badIO, err := p.IOValues(in, badOuts)
			if err != nil {
				t.Fatal(err)
			}
			res = v.Check(v.Z.Answer(b.Field, z), v.H.Answer(b.Field, h), badIO)
			if res.OK {
				t.Fatal("lying prover accepted")
			}
		})
	}
}

// TestEncodingShapes sanity-checks the Figure 9 shape: doubling the input
// size scales constraint counts by the expected asymptotic factor.
func TestEncodingShapes(t *testing.T) {
	cases := []struct {
		name     string
		small    *Benchmark
		dbl      *Benchmark
		loFactor float64
		hiFactor float64
	}{
		// LCS is O(m²): 4× within slack.
		{"lcs", LCS(8), LCS(16), 3.0, 5.0},
		// Floyd-Warshall is O(m³): 8× within slack.
		{"apsp", FloydWarshall(4), FloydWarshall(8), 5.5, 10.5},
		// Bisection is O(mL): 2× in m.
		{"bisect", Bisection(8, 5), Bisection(16, 5), 1.8, 2.2},
		// Fannkuch is O(m) in the number of permutations.
		{"fannkuch", Fannkuch(2, 5, 6), Fannkuch(4, 5, 6), 1.8, 2.2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p1, err := compiler.Compile(c.small.Field, c.small.Source)
			if err != nil {
				t.Fatal(err)
			}
			p2, err := compiler.Compile(c.dbl.Field, c.dbl.Source)
			if err != nil {
				t.Fatal(err)
			}
			r := float64(p2.Quad.NumConstraints()) / float64(p1.Quad.NumConstraints())
			if r < c.loFactor || r > c.hiFactor {
				t.Errorf("constraint growth %.2f outside [%v, %v] (%d → %d)",
					r, c.loFactor, c.hiFactor, p1.Quad.NumConstraints(), p2.Quad.NumConstraints())
			}
		})
	}
}

// TestProofVectorShrink checks the headline claim at benchmark scale:
// |u_zaatar| ≪ |u_ginger| for every benchmark (Figure 9's rightmost
// columns).
func TestProofVectorShrink(t *testing.T) {
	for _, b := range Small() {
		p, err := compiler.Compile(b.Field, b.Source)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		st := p.Stats()
		if st.UZaatar >= st.UGinger {
			t.Errorf("%s: |u_zaatar| = %d not smaller than |u_ginger| = %d",
				b.Name, st.UZaatar, st.UGinger)
		}
		// K2 far from the degenerate threshold K2* = (|Z|²-|Z|)/2 (§4).
		k2Star := (st.GingerVars*st.GingerVars - st.GingerVars) / 2
		if st.K2*10 > k2Star {
			t.Errorf("%s: K2 = %d is within 10%% of the degenerate threshold %d",
				b.Name, st.K2, k2Star)
		}
	}
}

// TestMatMulChain checks the backend-experiment workload: compiled
// semantics match the native reference, and the constraint system
// stratifies into a layered circuit (the property the sum-check lane
// needs, which the five paper benchmarks lack — they all branch).
func TestMatMulChain(t *testing.T) {
	b := MatMulChain(3, 3)
	p, err := compiler.Compile(b.Field, b.Source)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 5; trial++ {
		in := b.GenInputs(rng)
		want := b.Reference(in)
		got, err := p.Execute(in)
		if err != nil {
			t.Fatalf("execute: %v", err)
		}
		for i := range want {
			if got[i].Cmp(want[i]) != 0 {
				t.Fatalf("trial %d output %d: got %v, want %v", trial, i, got[i], want[i])
			}
		}
	}
	if _, err := constraint.Layer(b.Field, p.Ginger); err != nil {
		t.Fatalf("matmul chain does not stratify: %v", err)
	}
}

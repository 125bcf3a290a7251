package benchprogs

import (
	"math/big"
	"math/rand"
	"testing"

	"zaatar/internal/compiler"
	"zaatar/internal/pcp"
	"zaatar/internal/prg"
	"zaatar/internal/qap"
)

// TestBisectionRationalMatchesReference compares the compiled rational
// bisection against a big.Rat reference. Outputs are compared as rationals
// because the circuit produces exact-but-unreduced fractions.
func TestBisectionRationalMatchesReference(t *testing.T) {
	b := BisectionRational(4, 6)
	p, err := compiler.Compile(b.Field, b.Source)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if b.Field.Name() != "F220" {
		t.Fatal("rational bisection must run at the 220-bit modulus (§5.1)")
	}
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 3; trial++ {
		in := b.GenInputs(rng)
		want := b.Reference(in)
		got, w, err := p.SolveQuad(in)
		if err != nil {
			t.Fatalf("solve: %v", err)
		}
		if err := p.Quad.Check(b.Field, w); err != nil {
			t.Fatalf("witness: %v", err)
		}
		if len(got) != len(want) {
			t.Fatalf("output count %d, want %d", len(got), len(want))
		}
		for i := 0; i < len(got); i += 2 {
			gotRat := new(big.Rat).SetFrac(got[i], got[i+1])
			wantRat := new(big.Rat).SetFrac(want[i], want[i+1])
			if gotRat.Cmp(wantRat) != 0 {
				t.Fatalf("trial %d root %d: got %v, want %v", trial, i/2, gotRat, wantRat)
			}
		}
	}
}

// TestBisectionRationalEndToEndPCP proves and verifies one rational
// instance with the Zaatar PCP.
func TestBisectionRationalEndToEndPCP(t *testing.T) {
	b := BisectionRational(2, 5)
	p, err := compiler.Compile(b.Field, b.Source)
	if err != nil {
		t.Fatal(err)
	}
	q, err := qap.New(b.Field, p.Quad)
	if err != nil {
		t.Fatal(err)
	}
	v, err := pcp.NewZaatar(q, pcp.TestParams(), prg.NewFromSeed([]byte("rat"), 0))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
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
		t.Fatalf("honest rational prover rejected: %s", res.Reason)
	}
	// A lying prover perturbing a root numerator is caught.
	badOuts := append([]*big.Int(nil), outs...)
	badOuts[0] = new(big.Int).Add(badOuts[0], big.NewInt(1))
	badIO, err := p.IOValues(in, badOuts)
	if err != nil {
		t.Fatal(err)
	}
	res = v.Check(v.Z.Answer(b.Field, z), v.H.Answer(b.Field, h), badIO)
	if res.OK {
		t.Fatal("lying rational prover accepted")
	}
}

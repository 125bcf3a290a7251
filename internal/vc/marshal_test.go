package vc

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"zaatar/internal/compiler"
	"zaatar/internal/field"
	"zaatar/internal/pcp"
)

type codecRand struct{ r *rand.Rand }

func (c codecRand) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(c.r.Intn(256))
	}
	return len(p), nil
}

// TestPrecomputationRoundTrip serializes and restores the precomputation of
// every registered backend, then runs an honest instance end-to-end on the
// decoded state: queries drawn against it, witness solved with it, proof
// built from it, and the decision procedure must accept.
func TestPrecomputationRoundTrip(t *testing.T) {
	prog, err := compiler.Compile(field.F128(), arithSrc)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range pcp.Names() {
		t.Run(name, func(t *testing.T) {
			orig, err := PreprocessBackend(prog, name)
			if err != nil {
				t.Fatal(err)
			}
			blob, err := orig.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			restored, err := UnmarshalPrecomputation(prog, name, blob)
			if err != nil {
				t.Fatal(err)
			}
			if restored.Backend != name {
				t.Fatalf("backend %q after round trip", restored.Backend)
			}

			bk := restored.bk
			qs, err := bk.Queries(restored.pre, pcp.TestParams(), codecRand{rand.New(rand.NewSource(11))})
			if err != nil {
				t.Fatal(err)
			}
			inputs := inputsFor(9, 4)
			outs, w, err := bk.Solve(restored.pre, prog, inputs)
			if err != nil {
				t.Fatal(err)
			}
			proof, err := bk.BuildProof(restored.pre, w)
			if err != nil {
				t.Fatal(err)
			}
			// The decoded state is the original's equal, bit for bit: the same
			// query vectors from the same randomness (for zaatar these hold
			// q_d) and the same proof vectors (for zaatar U2 is h).
			qs0, err := bk.Queries(orig.pre, pcp.TestParams(), codecRand{rand.New(rand.NewSource(11))})
			if err != nil {
				t.Fatal(err)
			}
			a1, a2 := qs0.Vectors()
			b1, b2 := qs.Vectors()
			if !reflect.DeepEqual(a1, b1) || !reflect.DeepEqual(a2, b2) {
				t.Fatal("query vectors differ between original and decoded precomputation")
			}
			proof0, err := bk.BuildProof(orig.pre, w)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(proof0, proof) {
				t.Fatal("proof vectors differ between original and decoded precomputation")
			}
			r1, r2, err := qs.Answer(proof)
			if err != nil {
				t.Fatal(err)
			}
			io, err := prog.IOValues(inputs, outs)
			if err != nil {
				t.Fatal(err)
			}
			if res := qs.Decide(r1, r2, io); !res.OK {
				t.Fatalf("honest instance rejected on decoded precomputation: %s", res.Reason)
			}

			// Corrupt payloads must fail decode, not panic (the bundle
			// checksum catches bit rot, but version skew can produce valid
			// checksums over incompatible bytes).
			if len(blob) > 0 {
				bad := bytes.Clone(blob)
				bad[len(bad)/2] ^= 0xFF
				if dec, err := UnmarshalPrecomputation(prog, name, bad[:len(bad)-1]); err == nil && dec != nil {
					// Some single-byte corruptions survive structurally
					// (e.g. inside an element); that is the checksum's job.
					// But truncation of a non-empty payload must error for
					// the self-describing formats.
					if name == pcp.BackendZaatar {
						t.Fatal("truncated+corrupt zaatar payload decoded without error")
					}
				}
			}
		})
	}
}

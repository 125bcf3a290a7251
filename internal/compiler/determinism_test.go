package compiler

import (
	"crypto/sha256"
	"encoding/gob"
	"testing"

	"zaatar/internal/field"
)

// Compilation must be a pure function of (field, source): the verifier, the
// farm workers, and the artifact store each compile the source independently
// and must land on the identical constraint system, or honest proofs fail
// the QAP divisibility test. The historic bug: compileIf merged branch
// journals by ranging Go maps, so mux wire numbering followed the runtime's
// random map order. This program leans on the trigger — nested if/else
// writing several variables and array elements per branch.
func TestCompileDeterministic(t *testing.T) {
	const src = `
const N = 4;
input x[N] : int16;
output best, worst, spread : int32;
var acc[N] : int32;
best = x[0]; worst = x[0]; spread = 0;
for i = 0 to N-1 {
	if (x[i] > best) {
		best = x[i];
		acc[i] = x[i] + 1;
		spread = best - worst;
	} else {
		if (x[i] < worst) {
			worst = x[i];
			acc[i] = x[i] - 1;
			spread = best - worst;
		} else {
			acc[i] = x[i];
		}
	}
}
`
	sig := func() string {
		p, err := Compile(field.F128(), src)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		enc := gob.NewEncoder(h)
		if err := enc.Encode(p.Ginger); err != nil {
			t.Fatal(err)
		}
		if err := enc.Encode(p.Quad); err != nil {
			t.Fatal(err)
		}
		return string(h.Sum(nil))
	}
	// The hash covers ToQuad's native rows (pivot choice, B and C term
	// order), not only its minted products: the muxes here are all native.
	p, err := Compile(field.F128(), src)
	if err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.ZaatarConstraints >= st.GingerConstraints+st.K2 {
		t.Fatalf("|C_z| = %d: no Ginger row was kept in quadratic form (|C_g| = %d, K₂ = %d)",
			st.ZaatarConstraints, st.GingerConstraints, st.K2)
	}
	want := sig()
	for i := 0; i < 9; i++ {
		if got := sig(); got != want {
			t.Fatalf("compile %d produced a different constraint system than compile 0", i+1)
		}
	}
}

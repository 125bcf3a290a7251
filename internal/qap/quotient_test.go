package qap

import (
	"math/rand"
	"strings"
	"testing"

	"zaatar/internal/constraint"
	"zaatar/internal/field"
	"zaatar/internal/poly"
)

// TestBuildHIsTheQuotientOnShiftedPoints: over random satisfiable systems
// at the sizes where the convolution length changes, BuildH is
// BuildHNaive's polynomial evaluated at NC+1+k, and the verifier's query
// recovers H(τ) from it: D(τ)·⟨h, q_d⟩ = P_w(τ) with P_w from the
// definition.
func TestBuildHIsTheQuotientOnShiftedPoints(t *testing.T) {
	sizes := []int{1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65}
	for _, f := range []*field.Field{field.FTest(), field.F128(), field.F220()} {
		rng := rand.New(rand.NewSource(7))
		rdr := testReader{rand.New(rand.NewSource(8))}
		for _, n := range sizes {
			qs, w := randQuadSystem(f, rng, 4+rng.Intn(12), n)
			q, err := New(f, qs)
			if err != nil {
				t.Fatalf("%s n=%d: %v", f.Name(), n, err)
			}
			h, err := q.BuildH(w)
			if err != nil {
				t.Fatalf("%s n=%d: BuildH: %v", f.Name(), n, err)
			}
			naive, err := q.BuildHNaive(w)
			if err != nil {
				t.Fatalf("%s n=%d: BuildHNaive: %v", f.Name(), n, err)
			}
			if want := shiftedEvals(q, naive); !poly.Equal(f, h, want) || len(h) != len(want) {
				t.Fatalf("%s n=%d: h is not H on the shifted points", f.Name(), n)
			}
			tau := f.Rand(rdr)
			qr, err := q.BuildQueries(tau)
			if err != nil {
				t.Fatalf("%s n=%d: %v", f.Name(), n, err)
			}
			if lhs := f.Mul(qr.DTau, f.InnerProduct(h, qr.QD)); !f.Equal(lhs, evalPw(q, w, tau)) {
				t.Fatalf("%s n=%d: D(τ)·⟨h, q_d⟩ != P_w(τ)", f.Name(), n)
			}
		}
	}
}

// TestBuildHRefusalIsTheDivisibilityError: a bad witness is refused with
// the error the interpolating pipeline returned for a non-zero remainder.
func TestBuildHRefusalIsTheDivisibilityError(t *testing.T) {
	f := field.F128()
	qs, witness := buildSquareChain(t, f, 8)
	q, _ := New(f, qs)
	w := witness(3)
	w[q.N] = f.Add(w[q.N], f.One()) // the claimed output
	for name, build := range map[string]func([]field.Element) ([]field.Element, error){"BuildH": q.BuildH, "BuildHNaive": q.BuildHNaive} {
		if _, err := build(w); err == nil || !strings.Contains(err.Error(), "D ∤ P_w") {
			t.Errorf("%s on a wrong output: %v, want the D ∤ P_w refusal", name, err)
		}
	}
}

// TestNewRefusesSizesTheFieldCannotCarry: FTiny has p = 12289 and 2-adicity
// 12, so the convolution caps |C| at 2047 and the shifted points at 6143.
func TestNewRefusesSizesTheFieldCannotCarry(t *testing.T) {
	f := field.FTiny()
	for _, c := range []struct {
		n    int
		want string // substring of the error; empty means New must succeed
	}{
		{2047, ""},
		{2048, "NTT limit"},
		{6143, "NTT limit"},
		{6144, "distinct points"},
	} {
		qs, _ := buildSquareChainBench(f, c.n)
		_, err := New(f, qs)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("|C| = %d refused: %v", c.n, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("|C| = %d: %v, want an error mentioning %q", c.n, err, c.want)
		}
	}
}

// FuzzBuildH derives a sparse system and an assignment from the fuzz input,
// makes the assignment satisfying by construction (each constraint's C row
// gets the constant that balances it), and checks BuildH against the naive
// quotient; then breaks one constraint and requires a refusal.
func FuzzBuildH(fz *testing.F) {
	fz.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9})
	fz.Add([]byte("evaluation basis"))
	fz.Add([]byte{0xff, 0, 0xff, 0, 0x80, 0x7f})
	f := field.FTest()
	fz.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		next := func() int { // cycles through the input
			b := data[0]
			data = append(data[1:], b+1)
			return int(b)
		}
		nVars := 2 + next()%14 // ≥ 2: one input, one output
		nCons := 1 + next()%40
		w := make([]field.Element, nVars+1)
		w[0] = f.One()
		for i := 1; i <= nVars; i++ {
			w[i] = f.FromInt64(int64(next()) - 128)
		}
		qs := &constraint.QuadSystem{NumVars: nVars, In: []int{nVars - 1}, Out: []int{nVars}}
		lc := func() constraint.LinComb {
			var out constraint.LinComb
			for n := next() % 4; n > 0; n-- {
				out = append(out, constraint.LinTerm{Coeff: f.FromInt64(int64(next()) - 128), Var: next() % (nVars + 1)})
			}
			return out
		}
		for j := 0; j < nCons; j++ {
			a, b, c := lc(), lc(), lc()
			balance := f.Sub(f.Mul(a.Eval(f, w), b.Eval(f, w)), c.Eval(f, w))
			qs.Cons = append(qs.Cons, constraint.QuadConstraint{A: a, B: b, C: append(c, constraint.LinTerm{Coeff: balance, Var: 0})})
		}
		q, err := New(f, qs)
		if err != nil {
			t.Fatal(err)
		}
		h, err := q.BuildH(w)
		if err != nil {
			t.Fatalf("BuildH on a satisfying assignment: %v", err)
		}
		naive, err := q.BuildHNaive(w)
		if err != nil {
			t.Fatalf("BuildHNaive on a satisfying assignment: %v", err)
		}
		if !poly.Equal(f, h, shiftedEvals(q, naive)) {
			t.Fatal("h is not H on the shifted points")
		}
		broken := 1 + next()%nCons
		q.C[0] = append(q.C[0], Entry{J: broken, V: f.One()})
		if _, err := q.BuildH(w); err == nil {
			t.Fatalf("BuildH accepted an assignment that violates constraint %d", broken)
		}
	})
}

package compiler

import (
	"math/big"
	"math/rand"
	"strings"
	"testing"

	"zaatar/internal/field"
)

func compileOK(t *testing.T, src string) *Program {
	t.Helper()
	p, err := Compile(field.F128(), src)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return p
}

// run executes and cross-checks: outputs match want, and the witnesses
// satisfy both constraint systems.
func run(t *testing.T, p *Program, inputs []int64, want []int64) {
	t.Helper()
	in := make([]*big.Int, len(inputs))
	for i, v := range inputs {
		in[i] = big.NewInt(v)
	}
	outs, wg, err := p.SolveGinger(in)
	if err != nil {
		t.Fatalf("SolveGinger: %v", err)
	}
	if len(outs) != len(want) {
		t.Fatalf("got %d outputs, want %d", len(outs), len(want))
	}
	for i := range want {
		if outs[i].Int64() != want[i] {
			t.Fatalf("output[%d] (%s) = %v, want %d", i, p.OutputNames[i], outs[i], want[i])
		}
	}
	if err := p.Ginger.Check(p.Field, wg); err != nil {
		t.Fatalf("ginger witness: %v", err)
	}
	_, wq, err := p.SolveQuad(in)
	if err != nil {
		t.Fatalf("SolveQuad: %v", err)
	}
	if err := p.Quad.Check(p.Field, wq); err != nil {
		t.Fatalf("quad witness: %v", err)
	}
}

func TestDecrement(t *testing.T) {
	p := compileOK(t, `
		input x : int32;
		output y : int32;
		y = x - 3;
	`)
	run(t, p, []int64{10}, []int64{7})
	run(t, p, []int64{0}, []int64{-3})
}

func TestArithmetic(t *testing.T) {
	p := compileOK(t, `
		input a, b : int32;
		output s, d, m, n : int64;
		s = a + b;
		d = a - b;
		m = a * b;
		n = -a;
	`)
	run(t, p, []int64{7, 5}, []int64{12, 2, 35, -7})
	run(t, p, []int64{-3, 8}, []int64{5, -11, -24, 3})
}

func TestConstFolding(t *testing.T) {
	p := compileOK(t, `
		const N = 6;
		input x : int32;
		output y : int32;
		y = x * (N - 4) + 2 * 3;
	`)
	run(t, p, []int64{5}, []int64{16})
}

func TestComparisons(t *testing.T) {
	p := compileOK(t, `
		input a, b : int32;
		output lt, le, gt, ge, eq, ne : bool;
		lt = a < b;
		le = a <= b;
		gt = a > b;
		ge = a >= b;
		eq = a == b;
		ne = a != b;
	`)
	run(t, p, []int64{3, 5}, []int64{1, 1, 0, 0, 0, 1})
	run(t, p, []int64{5, 5}, []int64{0, 1, 0, 1, 1, 0})
	run(t, p, []int64{7, 5}, []int64{0, 0, 1, 1, 0, 1})
	run(t, p, []int64{-7, 5}, []int64{1, 1, 0, 0, 0, 1})
	run(t, p, []int64{-7, -9}, []int64{0, 0, 1, 1, 0, 1})
}

func TestLogicalOps(t *testing.T) {
	p := compileOK(t, `
		input a, b : int32;
		output both, either, nope : bool;
		both = (a > 0) && (b > 0);
		either = (a > 0) || (b > 0);
		nope = !(a > 0);
	`)
	run(t, p, []int64{1, 1}, []int64{1, 1, 0})
	run(t, p, []int64{1, -1}, []int64{0, 1, 0})
	run(t, p, []int64{-1, -1}, []int64{0, 0, 1})
}

func TestIfElse(t *testing.T) {
	p := compileOK(t, `
		input x : int32;
		output y : int32;
		if (x < 0) { y = -x; } else { y = x; }
	`)
	run(t, p, []int64{-9}, []int64{9})
	run(t, p, []int64{9}, []int64{9})
	run(t, p, []int64{0}, []int64{0})
}

func TestNestedIf(t *testing.T) {
	p := compileOK(t, `
		input x : int32;
		output y : int32;
		if (x < 0) {
			if (x < -10) { y = 1; } else { y = 2; }
		} else if (x > 10) { y = 3; } else { y = 4; }
	`)
	run(t, p, []int64{-20}, []int64{1})
	run(t, p, []int64{-5}, []int64{2})
	run(t, p, []int64{20}, []int64{3})
	run(t, p, []int64{5}, []int64{4})
}

func TestForLoop(t *testing.T) {
	p := compileOK(t, `
		const N = 10;
		input x[N] : int32;
		output sum : int64;
		sum = 0;
		for i = 0 to N-1 { sum = sum + x[i]; }
	`)
	in := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	run(t, p, in, []int64{55})
}

func TestConstantConditionFolds(t *testing.T) {
	p := compileOK(t, `
		const FLAG = 1;
		input x : int32;
		output y : int32;
		if (FLAG == 1) { y = x; } else { y = 0 - x; }
	`)
	run(t, p, []int64{42}, []int64{42})
}

func TestArrays2D(t *testing.T) {
	p := compileOK(t, `
		const R = 2;
		const C = 3;
		input m[R][C] : int32;
		output t : int64;
		var acc : int64;
		acc = 0;
		for i = 0 to R-1 {
			for j = 0 to C-1 { acc = acc + m[i][j] * (i + 1); }
		}
		t = acc;
	`)
	// m = [[1,2,3],[4,5,6]]: 1+2+3 + 2*(4+5+6) = 6 + 30 = 36
	run(t, p, []int64{1, 2, 3, 4, 5, 6}, []int64{36})
}

func TestDynamicRead(t *testing.T) {
	p := compileOK(t, `
		const N = 5;
		input a[N] : int32;
		input i : int32;
		output y : int32;
		y = a[i];
	`)
	run(t, p, []int64{10, 20, 30, 40, 50, 3}, []int64{40})
	run(t, p, []int64{10, 20, 30, 40, 50, 0}, []int64{10})
	// Out-of-range dynamic index reads as 0.
	run(t, p, []int64{10, 20, 30, 40, 50, 7}, []int64{0})
}

func TestDynamicWrite(t *testing.T) {
	p := compileOK(t, `
		const N = 4;
		input i : int32;
		output a[N] : int32;
		for k = 0 to N-1 { a[k] = k; }
		a[i] = 99;
	`)
	run(t, p, []int64{2}, []int64{0, 1, 99, 3})
	run(t, p, []int64{0}, []int64{99, 1, 2, 3})
}

func TestMinViaIf(t *testing.T) {
	p := compileOK(t, `
		const N = 6;
		input x[N] : int32;
		output m : int32;
		m = x[0];
		for i = 1 to N-1 {
			if (x[i] < m) { m = x[i]; }
		}
	`)
	run(t, p, []int64{5, 3, 8, -2, 9, 0}, []int64{-2})
	run(t, p, []int64{5, 5, 5, 5, 5, 5}, []int64{5})
}

func TestBoolInput(t *testing.T) {
	p := compileOK(t, `
		input c : bool;
		input a, b : int32;
		output y : int32;
		if (c) { y = a; } else { y = b; }
	`)
	run(t, p, []int64{1, 10, 20}, []int64{10})
	run(t, p, []int64{0, 10, 20}, []int64{20})
}

func TestInputMutation(t *testing.T) {
	// Mutating a variable bound to inputs must not disturb the input wires.
	p := compileOK(t, `
		const N = 3;
		input a[N] : int32;
		output s : int64;
		a[0] = a[0] + a[1];
		s = a[0] + a[2];
	`)
	run(t, p, []int64{1, 2, 3}, []int64{6})
}

func TestInputRangeEnforced(t *testing.T) {
	p := compileOK(t, `
		input x : int8;
		output y : int32;
		y = x + 1;
	`)
	if _, err := p.Execute([]*big.Int{big.NewInt(300)}); err == nil {
		t.Fatal("out-of-range input accepted")
	}
	if _, err := p.Execute([]*big.Int{big.NewInt(-129)}); err == nil {
		t.Fatal("out-of-range negative input accepted")
	}
}

func TestWrongInputCount(t *testing.T) {
	p := compileOK(t, `input x : int32; output y : int32; y = x;`)
	if _, err := p.Execute(nil); err == nil {
		t.Fatal("missing inputs accepted")
	}
}

func TestCompileErrors(t *testing.T) {
	cases := []struct {
		name, src, wantSub string
	}{
		{"undefined", `output y : int32; y = x;`, "undefined"},
		{"no outputs", `input x : int32; x = x;`, "no outputs"},
		{"redeclare", `input x : int32; var x : int32; output y : int32; y = 0;`, "redeclaration"},
		{"assign const", `const N = 3; output y : int32; N = 4;`, "constant"},
		{"bad type", `input x : float; output y : int32; y = x;`, "unknown type"},
		{"non-bool if", `input x : int32; output y : int32; if (x) { y = 1; } else { y = 0; }`, "boolean"},
		{"non-bool and", `input x : int32; output y : bool; y = x && (x > 0);`, "boolean"},
		{"bool assign", `input x : int32; output y : bool; y = x + 1;`, "non-boolean"},
		{"index count", `input a[3] : int32; output y : int32; y = a[0][1];`, "dimensions"},
		{"static oob", `input a[3] : int32; output y : int32; y = a[5];`, "out of bounds"},
		{"nonconst bound", `input n : int32; output y : int32; y = 0; for i = 0 to n { y = y + 1; }`, "constant"},
		{"unterminated", `input x : int32; output y : int32; y = (x;`, "expected"},
		{"bad char", `input x : int32; output y : int32; y = x $ 1;`, "unexpected character"},
		{"index const", `const N = 2; output y : int32; y = N[0];`, "cannot index"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Compile(field.F128(), c.src)
			if err == nil {
				t.Fatalf("compile succeeded, want error containing %q", c.wantSub)
			}
			if !strings.Contains(err.Error(), c.wantSub) {
				t.Fatalf("error %q does not contain %q", err.Error(), c.wantSub)
			}
		})
	}
}

func TestRangeOverflowRejected(t *testing.T) {
	// Squaring an int64 yields a ±2^126 range, which exceeds the 128-bit
	// field's ±2^125 integer capacity but fits the 220-bit field — the same
	// reason §5.1 runs some benchmarks at a 220-bit modulus.
	src := `
		input x : int64;
		output y : int64;
		y = x * x;
	`
	if _, err := Compile(field.F128(), src); err == nil {
		t.Fatal("range overflow not rejected")
	}
	if _, err := Compile(field.F220(), src); err != nil {
		t.Fatalf("220-bit field rejected a fitting program: %v", err)
	}
}

func TestIOIsolation(t *testing.T) {
	// No degree-2 term may touch a bound wire (the PCP batching invariant).
	p := compileOK(t, `
		input x, y : int32;
		output z : int64;
		z = x * y;
	`)
	nz := p.Ginger.NumUnbound()
	for j, c := range p.Ginger.Cons {
		for _, term := range c {
			if term.Degree() == 2 && (term.A > nz || term.B > nz) {
				t.Fatalf("constraint %d has degree-2 term on bound wire", j)
			}
		}
	}
	run(t, p, []int64{6, 7}, []int64{42})
}

func TestCanonicalSystems(t *testing.T) {
	p := compileOK(t, `
		input x : int32;
		output y : int32;
		y = x * x + 1;
	`)
	if !p.Quad.IsCanonical() {
		t.Error("Quad system is not canonical")
	}
	if got, want := len(p.Ginger.In), 1; got != want {
		t.Errorf("inputs = %d, want %d", got, want)
	}
	st := p.Stats()
	if st.UZaatar != p.Quad.NumUnbound()+p.Quad.NumConstraints() {
		t.Error("UZaatar mismatch")
	}
	// §4's identities are a bound: ToQuad mints a product variable and its
	// row only for degree-2 terms without the row's pivot, and this
	// program's single product row needs none.
	minted := st.ZaatarVars - st.GingerVars
	if minted != st.ZaatarConstraints-st.GingerConstraints || minted < 0 || minted > st.K2 {
		t.Errorf("minted = |Z_z|−|Z_g| = %d, |C_z|−|C_g| = %d, K₂ = %d: want equal and ≤ K₂",
			minted, st.ZaatarConstraints-st.GingerConstraints, st.K2)
	}
	if minted != 0 {
		t.Errorf("minted %d product variables for a program with one product row", minted)
	}
}

func TestCSEDedupes(t *testing.T) {
	// The same subexpression appearing twice must not double the wires.
	p1 := compileOK(t, `
		input a, b : int32;
		output y : int64;
		y = (a + b) * (a + b);
	`)
	p2 := compileOK(t, `
		input a, b : int32;
		output y : int64;
		var t : int64;
		t = a + b;
		y = t * t;
	`)
	if p1.Ginger.NumVars != p2.Ginger.NumVars {
		t.Errorf("CSE failed: %d vars vs %d", p1.Ginger.NumVars, p2.Ginger.NumVars)
	}
	run(t, p1, []int64{3, 4}, []int64{49})
}

func TestIOValuesAndDecode(t *testing.T) {
	p := compileOK(t, `input x : int32; output y : int32; y = x - 100;`)
	in := []*big.Int{big.NewInt(1)}
	outs, _, err := p.SolveGinger(in)
	if err != nil {
		t.Fatal(err)
	}
	io, err := p.IOValues(in, outs)
	if err != nil {
		t.Fatal(err)
	}
	if len(io) != 2 {
		t.Fatalf("io length %d, want 2", len(io))
	}
	dec := p.DecodeOutputs([]field.Element{io[1]})
	if dec[0].Int64() != -99 {
		t.Errorf("decoded output %v, want -99", dec[0])
	}
	if _, err := p.IOValues(in, nil); err == nil {
		t.Error("io size mismatch accepted")
	}
}

func TestRandomizedAgainstInterpreter(t *testing.T) {
	// Fuzz a fixed program against a direct Go implementation.
	p := compileOK(t, `
		const N = 8;
		input x[N] : int16;
		output maxv, minv : int32;
		output sumpos : int64;
		maxv = x[0];
		minv = x[0];
		sumpos = 0;
		for i = 0 to N-1 {
			if (x[i] > maxv) { maxv = x[i]; }
			if (x[i] < minv) { minv = x[i]; }
			if (x[i] > 0) { sumpos = sumpos + x[i]; }
		}
	`)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		in := make([]int64, 8)
		maxv, minv, sum := int64(-40000), int64(40000), int64(0)
		for i := range in {
			in[i] = int64(rng.Intn(65536) - 32768)
			if in[i] > maxv {
				maxv = in[i]
			}
			if in[i] < minv {
				minv = in[i]
			}
			if in[i] > 0 {
				sum += in[i]
			}
		}
		run(t, p, in, []int64{maxv, minv, sum})
	}
}

func TestParserRecognizesComments(t *testing.T) {
	p := compileOK(t, `
		// line comment
		input x : int32; /* block
		comment */ output y : int32;
		y = x; // trailing
	`)
	run(t, p, []int64{5}, []int64{5})
}

func TestHexLiterals(t *testing.T) {
	p := compileOK(t, `input x : int32; output y : int64; y = x + 0x10;`)
	run(t, p, []int64{1}, []int64{17})
}

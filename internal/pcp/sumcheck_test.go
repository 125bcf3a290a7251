package pcp

import (
	"crypto/sha256"
	"fmt"
	"io"
	"math/big"
	"math/rand"
	"testing"

	"zaatar/internal/benchprogs"
	"zaatar/internal/compiler"
	"zaatar/internal/constraint"
	"zaatar/internal/field"
	"zaatar/internal/prg"
)

// sumcheckSrc is pure arithmetic — no comparisons, so no advice wires — and
// stratifies into a few layers with both mul and add gates.
const sumcheckSrc = `
input x, y : int32;
output a, b : int64;
a = (x + y) * (x - y);
b = x * x * y + 3 * y;
`

func sumcheckFixture(t *testing.T) (Backend, *compiler.Program, Precomputed) {
	t.Helper()
	prog, err := compiler.Compile(field.F128(), sumcheckSrc)
	if err != nil {
		t.Fatal(err)
	}
	bk, err := Lookup(BackendSumcheck)
	if err != nil {
		t.Fatal(err)
	}
	pre, err := bk.Precompute(prog)
	if err != nil {
		t.Fatalf("Precompute: %v", err)
	}
	return bk, prog, pre
}

// proveOnce runs the full backend flow for one instance and returns the
// queries, io vector, and proof stream.
func proveOnce(t *testing.T, seed int64, inputs []int64) (Queries, []field.Element, []field.Element) {
	t.Helper()
	bk, prog, pre := sumcheckFixture(t)
	if bk.NeedsCommitment() {
		t.Fatal("sumcheck backend should not need commitment")
	}
	if n1, n2 := bk.OracleLens(pre); n1 != 0 || n2 != 0 {
		t.Fatalf("OracleLens = (%d, %d), want (0, 0)", n1, n2)
	}

	in := make([]*big.Int, len(inputs))
	for i, v := range inputs {
		in[i] = big.NewInt(v)
	}
	outs, witness, err := bk.Solve(pre, prog, in)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	// Cross-check against the straight-line interpreter.
	want, err := prog.Execute(in)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if outs[i].Cmp(want[i]) != 0 {
			t.Fatalf("output[%d] = %v, want %v", i, outs[i], want[i])
		}
	}

	proof, err := bk.BuildProof(pre, witness)
	if err != nil {
		t.Fatalf("BuildProof: %v", err)
	}
	q, err := bk.Queries(pre, TestParams(), prg.NewFromSeed([]byte("sumcheck-test-seed"), uint64(seed)))
	if err != nil {
		t.Fatalf("Queries: %v", err)
	}
	if q1, q2 := q.Vectors(); q1 != nil || q2 != nil {
		t.Fatal("interactive backend should publish no query vectors")
	}
	r1, r2, err := q.Answer(proof)
	if err != nil {
		t.Fatalf("Answer: %v", err)
	}
	if len(r2) != 0 {
		t.Fatalf("r2 has %d elements, want 0", len(r2))
	}
	io, err := prog.IOValues(in, outs)
	if err != nil {
		t.Fatal(err)
	}
	return q, io, r1
}

func TestSumcheckRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		q, io, r1 := proveOnce(t, seed, []int64{7, 5})
		if res := q.Decide(r1, nil, io); !res.OK {
			t.Fatalf("seed %d: honest proof rejected: %s", seed, res.Reason)
		}
	}
	q, io, r1 := proveOnce(t, 9, []int64{-12, 31})
	if res := q.Decide(r1, nil, io); !res.OK {
		t.Fatalf("negative inputs: honest proof rejected: %s", res.Reason)
	}
}

// TestSumcheckRejectsTamper flips every single element of the honest stream
// in turn; the verifier must reject each mutation.
func TestSumcheckRejectsTamper(t *testing.T) {
	q, io, r1 := proveOnce(t, 1, []int64{7, 5})
	f := field.F128()
	for i := range r1 {
		mutated := make([]field.Element, len(r1))
		copy(mutated, r1)
		mutated[i] = f.Add(mutated[i], f.One())
		if res := q.Decide(mutated, nil, io); res.OK {
			t.Fatalf("accepted stream with element %d/%d mutated", i, len(r1))
		}
	}
}

func TestSumcheckRejectsWrongIO(t *testing.T) {
	q, io, r1 := proveOnce(t, 2, []int64{7, 5})
	f := field.F128()

	// Wrong output claim.
	bad := make([]field.Element, len(io))
	copy(bad, io)
	bad[len(bad)-1] = f.Add(bad[len(bad)-1], f.One())
	if res := q.Decide(r1, nil, bad); res.OK {
		t.Fatal("accepted proof against a falsified output")
	}

	// Wrong input claim.
	copy(bad, io)
	bad[0] = f.Add(bad[0], f.One())
	if res := q.Decide(r1, nil, bad); res.OK {
		t.Fatal("accepted proof against a falsified input")
	}

	// Malformed lengths.
	if res := q.Decide(r1[:len(r1)-1], nil, io); res.OK {
		t.Fatal("accepted truncated stream")
	}
	if res := q.Decide(r1, []field.Element{f.One()}, io); res.OK {
		t.Fatal("accepted unexpected second oracle response")
	}
	if res := q.Decide(r1, nil, io[:len(io)-1]); res.OK {
		t.Fatal("accepted truncated io")
	}
}

// TestSumcheckSaltBinds checks that a proof generated under one salt does
// not verify under another: the transcript challenges must depend on the
// batch randomness, not only on the messages.
func TestSumcheckSaltBinds(t *testing.T) {
	_, io, r1 := proveOnce(t, 3, []int64{7, 5})
	bk, _, pre := sumcheckFixture(t)
	other, err := bk.Queries(pre, TestParams(), prg.NewFromSeed([]byte("a-different-seed"), 0))
	if err != nil {
		t.Fatal(err)
	}
	if res := other.Decide(r1, nil, io); res.OK {
		t.Fatal("proof verified under a different salt")
	}
}

func TestSumcheckProofLen(t *testing.T) {
	_, prog, pre := sumcheckFixture(t)
	circ, err := constraint.Layer(prog.Field, prog.Ginger)
	if err != nil {
		t.Fatal(err)
	}
	_, io, r1 := proveOnce(t, 4, []int64{1, 2})
	if len(r1) != SumcheckProofLen(circ) {
		t.Fatalf("stream has %d elements, SumcheckProofLen says %d", len(r1), SumcheckProofLen(circ))
	}
	_ = io
	_ = pre
}

// FuzzSumcheckRound feeds mutated proof streams to the verifier: it must
// never panic and never accept a stream that differs from the honest one.
// Fixture 0 is sumcheckSrc; fixture 1 is sumcheckPinSrc, whose layers are
// not powers of two wide and whose output layer has b = 0.
func FuzzSumcheckRound(f *testing.F) {
	type fixture struct {
		q          Queries
		io, honest []field.Element
	}
	var fixtures []fixture
	for _, c := range []struct {
		src    string
		inputs []int64
	}{{sumcheckSrc, []int64{7, 5}}, {sumcheckPinSrc, []int64{3, -7, 11, 2}}} {
		_, q, io, honest := sumcheckStream(f, field.F128(), c.src, c.inputs, "fuzz-seed")
		fixtures = append(fixtures, fixture{q, io, honest})
	}
	fld := field.F128()

	for which := range fixtures {
		f.Add(uint8(which), uint16(0), uint64(1))
		f.Add(uint8(which), uint16(5), uint64(1<<40))
		f.Add(uint8(which), uint16(len(fixtures[which].honest)-1), uint64(0))
	}
	f.Fuzz(func(t *testing.T, which uint8, pos uint16, delta uint64) {
		fx := fixtures[int(which)%len(fixtures)]
		mutated := make([]field.Element, len(fx.honest))
		copy(mutated, fx.honest)
		i := int(pos) % len(mutated)
		mutated[i] = fld.Add(mutated[i], fld.FromUint64(delta))
		res := fx.q.Decide(mutated, nil, fx.io)
		if fld.IsZero(fld.FromUint64(delta)) {
			if !res.OK {
				t.Fatalf("honest stream rejected: %s", res.Reason)
			}
			return
		}
		if res.OK {
			t.Fatalf("fixture %d: accepted stream with element %d shifted by %d", int(which)%len(fixtures), i, delta)
		}
	})
}

// FuzzSumcheckProver draws small random layered circuits — widths from 1
// up to 2^k+1, random gate terms and coefficients, gates with no terms —
// and checks that Answer's stream equals answerReference's, the O(S·log S)
// prover it replaced, and that Decide accepts it.
func FuzzSumcheckProver(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed, uint8(seed%4))
	}
	widths := []int{1, 2, 3, 4, 5, 7, 8, 9, 16, 17, 33}
	f.Fuzz(func(t *testing.T, seed int64, depth uint8) {
		rng := rand.New(rand.NewSource(seed))
		fld := field.F128()
		if seed&1 == 1 {
			fld = field.F220()
		}
		src := prg.NewFromSeed([]byte("fuzz-prover"), uint64(seed))
		pick := func() int { return widths[rng.Intn(len(widths))] }

		circ := &constraint.LayeredCircuit{NumInputs: pick() - 1}
		prevWidth := circ.InputWidth()
		for d := 0; d <= int(depth%5); d++ {
			ly := constraint.CircuitLayer{Width: pick()}
			for n := rng.Intn(3*ly.Width + 1); n > 0; n-- {
				c := fld.FromInt64(rng.Int63n(7) - 3)
				if rng.Intn(2) == 0 {
					c = fld.Rand(src)
				}
				ly.Terms = append(ly.Terms, constraint.GateTerm{G: rng.Intn(ly.Width), U: rng.Intn(prevWidth), V: rng.Intn(prevWidth), C: c})
			}
			circ.Layers = append(circ.Layers, ly)
			prevWidth = ly.Width
		}
		circ.NumOutputs = prevWidth

		inputs := fld.RandVector(circ.NumInputs, src)
		vals, err := circ.Eval(fld, inputs)
		if err != nil {
			t.Fatal(err)
		}
		var witness []field.Element
		for _, layer := range vals {
			witness = append(witness, layer...)
		}
		q := &sumcheckQueries{pre: &sumcheckPre{f: fld, circ: circ}}
		if _, err := io.ReadFull(src, q.salt[:]); err != nil {
			t.Fatal(err)
		}

		got, _, err := q.Answer(&Proof{U1: witness})
		if err != nil {
			t.Fatal(err)
		}
		want, err := q.answerReference(&Proof{U1: witness})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("widths %v: stream has %d elements, reference %d", circ.Widths(), len(got), len(want))
		}
		for i := range want {
			if !fld.Equal(got[i], want[i]) {
				t.Fatalf("widths %v: stream element %d differs from the reference prover's", circ.Widths(), i)
			}
		}
		ioVals := append(append([]field.Element{}, inputs...), vals[len(vals)-1]...)
		if res := q.Decide(got, nil, ioVals); !res.OK {
			t.Fatalf("widths %v: honest proof rejected: %s", circ.Widths(), res.Reason)
		}
	})
}

// TestFoldMLEEquivalence pins the single-multiplication fold to the
// textbook two-multiplication form on random power-of-two tables, across
// sizes and challenge values (including the 0/1 endpoints).
func TestFoldMLEEquivalence(t *testing.T) {
	f := field.F128()
	rnd := prg.NewFromSeed([]byte("fold-equiv"), 1)
	for _, size := range []int{2, 4, 64, 1 << 10} {
		for i, r := range []field.Element{f.Zero(), f.One(), f.Rand(rnd), f.Rand(rnd)} {
			tbl := f.RandVector(size, rnd)
			a := make([]field.Element, size)
			b := make([]field.Element, size)
			copy(a, tbl)
			copy(b, tbl)
			got := FoldMLE(f, a, r)
			want := FoldMLETwoMul(f, b, r)
			if len(got) != size/2 || len(want) != size/2 {
				t.Fatalf("size %d: fold lengths %d/%d, want %d", size, len(got), len(want), size/2)
			}
			for k := range got {
				if !f.Equal(got[k], want[k]) {
					t.Fatalf("size %d, challenge %d: entry %d differs", size, i, k)
				}
			}
		}
	}
}

// sumcheckPinSrc has a single output, so the output layer is indexed by
// b = 0 variables, and layer widths that are not powers of two.
const sumcheckPinSrc = `
input w, x, y, z : int32;
output s : int64;
s = w * x * y + x * y * z + 5 * w * z - y;
`

// sumcheckStream compiles src over f, solves it on inputs and returns the
// layered circuit, the queries, the io vector and Answer's proof stream
// under the salt drawn from seed.
func sumcheckStream(tb testing.TB, f *field.Field, src string, inputs []int64, seed string) (*constraint.LayeredCircuit, Queries, []field.Element, []field.Element) {
	tb.Helper()
	prog, err := compiler.Compile(f, src)
	if err != nil {
		tb.Fatal(err)
	}
	bk, err := Lookup(BackendSumcheck)
	if err != nil {
		tb.Fatal(err)
	}
	pre, err := bk.Precompute(prog)
	if err != nil {
		tb.Fatalf("Precompute: %v", err)
	}
	in := make([]*big.Int, len(inputs))
	for i, v := range inputs {
		in[i] = big.NewInt(v)
	}
	outs, witness, err := bk.Solve(pre, prog, in)
	if err != nil {
		tb.Fatalf("Solve: %v", err)
	}
	proof, err := bk.BuildProof(pre, witness)
	if err != nil {
		tb.Fatal(err)
	}
	q, err := bk.Queries(pre, TestParams(), prg.NewFromSeed([]byte(seed), 0))
	if err != nil {
		tb.Fatal(err)
	}
	r1, _, err := q.Answer(proof)
	if err != nil {
		tb.Fatalf("Answer: %v", err)
	}
	io, err := prog.IOValues(in, outs)
	if err != nil {
		tb.Fatal(err)
	}
	return pre.(*sumcheckPre).circ, q, io, r1
}

// TestSumcheckTranscriptPinned holds the sha256 of Answer's proof stream
// for fixed programs, inputs and salt over both fields, so a rewrite of the
// prover must reproduce the transcript byte for byte.
func TestSumcheckTranscriptPinned(t *testing.T) {
	matmulInputs := func(n int) []int64 {
		in := make([]int64, 2*n*n)
		for i := range in {
			in[i] = int64(i*37%201) - 100
		}
		return in
	}
	cases := []struct {
		name   string
		f      *field.Field
		src    string
		inputs []int64
		want   string
	}{
		{"matmul4x3/F128", field.F128(), benchprogs.MatMulChain(4, 3).Source, matmulInputs(4), "57068a14b6aecfc97bc0a383a6f11574884b56432df8502072d4201c3719e0a3"},
		{"matmul4x3/F220", field.F220(), benchprogs.MatMulChain(4, 3).Source, matmulInputs(4), "c0dc7f02cfaf0a74b7e9b59ac26e6738df801a2614cdaf1d12f9a5fc03c8b97c"},
		{"matmul8x6/F128", field.F128(), benchprogs.MatMulChain(8, 6).Source, matmulInputs(8), "89f7c396a1afb19586c87a7eea2e1916be96b770dbb46fb8b6fbfef480203d99"},
		{"single-output/F128", field.F128(), sumcheckPinSrc, []int64{3, -7, 11, 2}, "df51a6f62e155ec4919428cf278677d5d9ec2067bcbe86d2d0e7725b088a9e12"},
		{"single-output/F220", field.F220(), sumcheckPinSrc, []int64{3, -7, 11, 2}, "f9870690958f60b6366da7b384cc3d6c56ddd21ac3fdf5e71fb366a7b3dafc3c"},
	}
	for _, c := range cases {
		circ, q, io, r1 := sumcheckStream(t, c.f, c.src, c.inputs, "transcript-pin")
		if res := q.Decide(r1, nil, io); !res.OK {
			t.Fatalf("%s: honest proof rejected: %s", c.name, res.Reason)
		}
		var buf []byte
		for _, e := range r1 {
			buf = field.AppendElement(buf, e)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(buf)); got != c.want {
			t.Errorf("%s (widths %v): stream sha256 %s, want %s", c.name, circ.Widths(), got, c.want)
		}
	}
}

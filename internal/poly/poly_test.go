package poly

import (
	"math/rand"
	"testing"

	"zaatar/internal/field"
)

type testReader struct{ r *rand.Rand }

func (t testReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(t.r.Intn(256))
	}
	return len(p), nil
}

func randPoly(f *field.Field, rng testReader, deg int) []field.Element {
	if deg < 0 {
		return nil
	}
	p := f.RandVector(deg+1, rng)
	// Force the leading coefficient non-zero so degrees are exact.
	for f.IsZero(p[deg]) {
		p[deg] = f.Rand(rng)
	}
	return p
}

func TestTrimAndDegree(t *testing.T) {
	f := field.F128()
	z := f.Zero()
	one := f.One()
	cases := []struct {
		p    []field.Element
		want int
	}{
		{nil, -1},
		{[]field.Element{z}, -1},
		{[]field.Element{z, z, z}, -1},
		{[]field.Element{one}, 0},
		{[]field.Element{z, one, z}, 1},
	}
	for i, c := range cases {
		if got := Degree(f, c.p); got != c.want {
			t.Errorf("case %d: Degree = %d, want %d", i, got, c.want)
		}
	}
}

func TestSubEval(t *testing.T) {
	f := field.F128()
	rng := testReader{rand.New(rand.NewSource(1))}
	for i := 0; i < 30; i++ {
		a := randPoly(f, rng, rng.r.Intn(20))
		b := randPoly(f, rng, rng.r.Intn(20))
		x := f.Rand(rng)
		diff := Sub(f, a, b)
		if got, want := Eval(f, diff, x), f.Sub(Eval(f, a, x), Eval(f, b, x)); !f.Equal(got, want) {
			t.Fatal("(a-b)(x) != a(x)-b(x)")
		}
	}
}

func TestNTTRoundTrip(t *testing.T) {
	for _, f := range []*field.Field{field.F128(), field.F220(), field.FTiny()} {
		rng := testReader{rand.New(rand.NewSource(2))}
		for _, n := range []int{1, 2, 4, 64, 512} {
			a := f.RandVector(n, rng)
			b := append([]field.Element(nil), a...)
			NTT(f, b, false)
			NTT(f, b, true)
			for i := range a {
				if !f.Equal(a[i], b[i]) {
					t.Fatalf("%s: NTT round trip failed at n=%d i=%d", f.Name(), n, i)
				}
			}
		}
	}
}

func TestNTTMatchesDFT(t *testing.T) {
	// Direct DFT definition check at small size.
	f := field.FTiny()
	rng := testReader{rand.New(rand.NewSource(3))}
	n := 8
	a := f.RandVector(n, rng)
	w := f.RootOfUnity(3) // 8th root
	want := make([]field.Element, n)
	for k := 0; k < n; k++ {
		acc := f.Zero()
		for j := 0; j < n; j++ {
			acc = f.Add(acc, f.Mul(a[j], f.ExpUint(w, uint64(j*k))))
		}
		want[k] = acc
	}
	got := append([]field.Element(nil), a...)
	NTT(f, got, false)
	for k := 0; k < n; k++ {
		if !f.Equal(got[k], want[k]) {
			t.Fatalf("NTT[%d] = %v, want %v", k, f.ToBig(got[k]), f.ToBig(want[k]))
		}
	}
}

func TestMulNTTAgainstNaive(t *testing.T) {
	f := field.F128()
	rng := testReader{rand.New(rand.NewSource(4))}
	for _, da := range []int{-1, 0, 1, 5, 63, 64, 100, 257} {
		for _, db := range []int{-1, 0, 3, 64, 129} {
			a := randPoly(f, rng, da)
			b := randPoly(f, rng, db)
			if !Equal(f, MulNTT(f, a, b), MulNaive(f, a, b)) {
				t.Fatalf("MulNTT mismatch at deg %d×%d", da, db)
			}
		}
	}
}

func TestMulEvalProperty(t *testing.T) {
	f := field.F220()
	rng := testReader{rand.New(rand.NewSource(5))}
	for i := 0; i < 20; i++ {
		a := randPoly(f, rng, 40+rng.r.Intn(100))
		b := randPoly(f, rng, 40+rng.r.Intn(100))
		x := f.Rand(rng)
		if got, want := Eval(f, MulNTT(f, a, b), x), f.Mul(Eval(f, a, x), Eval(f, b, x)); !f.Equal(got, want) {
			t.Fatal("(ab)(x) != a(x)b(x)")
		}
	}
}

func TestDivRemNaive(t *testing.T) {
	f := field.F128()
	rng := testReader{rand.New(rand.NewSource(6))}
	for _, da := range []int{0, 1, 10, 100} {
		for _, db := range []int{0, 1, 2, 17, 100} {
			a := randPoly(f, rng, da)
			b := randPoly(f, rng, db)
			q, r := DivRemNaive(f, a, b)
			// a − q·b = r and deg r < deg b
			if !Equal(f, Sub(f, a, MulNaive(f, q, b)), r) {
				t.Fatalf("a != q·b + r at deg %d/%d", da, db)
			}
			if Degree(f, r) >= Degree(f, b) {
				t.Fatalf("remainder degree %d >= divisor degree %d", Degree(f, r), Degree(f, b))
			}
		}
	}
}

func TestDivByZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("DivRemNaive by zero did not panic")
		}
	}()
	f := field.F128()
	DivRemNaive(f, []field.Element{f.One()}, nil)
}

func TestInterpolateNaive(t *testing.T) {
	f := field.F220()
	rng := testReader{rand.New(rand.NewSource(8))}
	for _, n := range []int{1, 2, 3, 8, 17, 50} {
		pts := make([]field.Element, n)
		for i := range pts {
			pts[i] = f.FromUint64(uint64(i)) // arithmetic progression incl. 0, like the QAP
		}
		// Interpolating the evaluations of a known polynomial recovers it.
		p := randPoly(f, rng, n-1)
		vals := make([]field.Element, n)
		for i := range vals {
			vals[i] = Eval(f, p, pts[i])
		}
		if !Equal(f, InterpolateNaive(f, pts, vals), p) {
			t.Fatalf("n=%d: interpolation round trip failed", n)
		}
	}
}

func TestConvolveAgainstDefinition(t *testing.T) {
	for _, f := range []*field.Field{field.F128(), field.F220(), field.FTiny()} {
		rng := testReader{rand.New(rand.NewSource(9))}
		for _, klen := range []int{1, 2, 3, 4, 5, 31, 32, 33, 100} {
			kernel := f.RandVector(klen, rng)
			c, err := NewConvolver(f, kernel)
			if err != nil {
				t.Fatal(err)
			}
			n := c.Size()
			if n != nextPow2(klen) {
				t.Fatalf("kernel of %d: size %d", klen, n)
			}
			a := f.RandVector(n, rng)
			want := make([]field.Element, n)
			for i := range a {
				for j := range kernel {
					m := (i + j) % n
					want[m] = f.Add(want[m], f.Mul(a[i], kernel[j]))
				}
			}
			c.Convolve(a)
			for m := range want {
				if !f.Equal(a[m], want[m]) {
					t.Fatalf("%s, kernel of %d: entry %d differs", f.Name(), klen, m)
				}
			}
		}
	}
}

func TestConvolverSizeLimit(t *testing.T) {
	f := field.FTiny() // 2-adicity 12
	if _, err := NewConvolver(f, make([]field.Element, 1<<12)); err != nil {
		t.Fatalf("size 2^12 refused: %v", err)
	}
	if _, err := NewConvolver(f, make([]field.Element, 1<<12+1)); err == nil {
		t.Fatal("size 2^13 accepted over a field of 2-adicity 12")
	}
}

func BenchmarkMulNTT(b *testing.B) {
	f := field.F128()
	rng := testReader{rand.New(rand.NewSource(10))}
	for _, n := range []int{256, 1024, 4096} {
		b.Run(sizeName(n), func(b *testing.B) {
			x := f.RandVector(n, rng)
			y := f.RandVector(n, rng)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MulNTT(f, x, y)
			}
		})
	}
}

func BenchmarkMulNaive(b *testing.B) {
	f := field.F128()
	rng := testReader{rand.New(rand.NewSource(11))}
	for _, n := range []int{256, 1024} {
		b.Run(sizeName(n), func(b *testing.B) {
			x := f.RandVector(n, rng)
			y := f.RandVector(n, rng)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MulNaive(f, x, y)
			}
		})
	}
}

func BenchmarkConvolve(b *testing.B) {
	f := field.F128()
	rng := testReader{rand.New(rand.NewSource(12))}
	for _, n := range []int{1024, 8192} {
		b.Run(sizeName(n), func(b *testing.B) {
			c, err := NewConvolver(f, f.RandVector(n, rng))
			if err != nil {
				b.Fatal(err)
			}
			a := f.RandVector(n, rng)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Convolve(a)
			}
		})
	}
}

func sizeName(n int) string {
	switch {
	case n >= 1024:
		return string(rune('0'+n/1024)) + "k"
	default:
		return "n" + string(rune('0'+n/100)) + "xx"
	}
}

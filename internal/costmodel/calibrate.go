package costmodel

import (
	"time"

	"zaatar/internal/elgamal"
	"zaatar/internal/field"
	"zaatar/internal/prg"
)

// Calibrate measures the §5.1 microbenchmark parameters on the current
// machine by timing each operation reps times (the paper uses 1000). The
// group may be nil, in which case the cryptographic parameters (e, d, h)
// are left zero — enough for PCP-only estimates.
func Calibrate(f *field.Field, group *elgamal.Group, reps int) OpCosts {
	if reps < 1 {
		reps = 1
	}
	rnd := prg.NewFromSeed([]byte("calibrate"), 0)
	var p OpCosts

	a, b := f.Rand(rnd), f.RandNonZero(rnd)

	// f: field multiplication with reduction.
	start := time.Now()
	for i := 0; i < reps; i++ {
		a = f.Mul(a, b)
	}
	p.F = seconds(start, reps)

	// f_lazy: per-term cost of a lazily-reduced inner product.
	const ipLen = 512
	va := f.RandVector(ipLen, rnd)
	vb := f.RandVector(ipLen, rnd)
	start = time.Now()
	for i := 0; i < reps/ipLen+1; i++ {
		_ = f.InnerProduct(va, vb)
	}
	p.FLazy = seconds(start, (reps/ipLen+1)*ipLen)

	// f_div: field inversion.
	divReps := reps / 20
	if divReps < 8 {
		divReps = 8
	}
	// Run the loop once untimed first, as E warms its tables: at the
	// smallest rep counts the first, cold inversions dominate the mean.
	for i := 0; i < divReps; i++ {
		b = f.Inv(b)
	}
	start = time.Now()
	for i := 0; i < divReps; i++ {
		b = f.Inv(b)
	}
	p.FDiv = seconds(start, divReps)

	// c: pseudorandom field element.
	start = time.Now()
	for i := 0; i < reps; i++ {
		a = f.Rand(rnd)
	}
	p.C = seconds(start, reps)

	if group != nil {
		sk, err := group.GenerateKey(rnd)
		if err != nil {
			panic("costmodel: key generation failed: " + err.Error())
		}
		cryptoReps := reps / 50
		if cryptoReps < 4 {
			cryptoReps = 4
		}
		m := f.Rand(rnd)
		// Warm up the fixed-base tables for G and H so E measures the
		// steady-state (table-backed) cost the protocol actually pays, not
		// the one-time table build.
		ct, _ := sk.Encrypt(f, m, rnd)
		start = time.Now()
		for i := 0; i < cryptoReps; i++ {
			ct, _ = sk.Encrypt(f, m, rnd)
		}
		p.E = seconds(start, cryptoReps)

		start = time.Now()
		for i := 0; i < cryptoReps; i++ {
			_ = sk.DecryptExp(ct)
		}
		p.D = seconds(start, cryptoReps)

		// h: amortized per-term cost of the homomorphic inner product. The
		// prover pays this through the multi-exponentiation kernel over the
		// whole proof vector, so measure the kernel over a representative
		// length and divide — not one isolated Add+ScalarMul.
		const hLen = 128
		cts := make([]elgamal.Ciphertext, hLen)
		for i := range cts {
			cts[i] = ct
		}
		ws := f.RandVector(hLen, rnd)
		hReps := cryptoReps/hLen + 1
		start = time.Now()
		for i := 0; i < hReps; i++ {
			if _, err := group.InnerProduct(cts, f, ws); err != nil {
				panic("costmodel: inner product failed: " + err.Error())
			}
		}
		p.H = seconds(start, hReps*hLen)
	}
	return p
}

func seconds(start time.Time, n int) float64 {
	return time.Since(start).Seconds() / float64(n)
}

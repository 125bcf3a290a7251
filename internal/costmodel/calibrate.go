package costmodel

import (
	"time"

	"zaatar/internal/elgamal"
	"zaatar/internal/field"
	"zaatar/internal/prg"
)

// Calibrate measures the §5.1 microbenchmark parameters on the current
// machine by timing each operation reps times (the paper uses 1000); each
// field constant is the fastest of fieldWindows such timings. The
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
	p.F = fastest(func() float64 {
		start := time.Now()
		for i := 0; i < reps; i++ {
			a = f.Mul(a, b)
		}
		return seconds(start, reps)
	})

	// f_lazy: per-term cost of a lazily-reduced inner product.
	const ipLen = 512
	va := f.RandVector(ipLen, rnd)
	vb := f.RandVector(ipLen, rnd)
	p.FLazy = fastest(func() float64 {
		start := time.Now()
		for i := 0; i < reps/ipLen+1; i++ {
			_ = f.InnerProduct(va, vb)
		}
		return seconds(start, (reps/ipLen+1)*ipLen)
	})

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
	p.FDiv = fastest(func() float64 {
		start := time.Now()
		for i := 0; i < divReps; i++ {
			b = f.Inv(b)
		}
		return seconds(start, divReps)
	})

	// c: pseudorandom field element.
	p.C = fastest(func() float64 {
		start := time.Now()
		for i := 0; i < reps; i++ {
			a = f.Rand(rnd)
		}
		return seconds(start, reps)
	})

	if group != nil {
		sk, err := group.GenerateKey(rnd)
		if err != nil {
			panic("costmodel: key generation failed: " + err.Error())
		}
		cryptoReps := reps / 50
		if cryptoReps < 4 {
			cryptoReps = 4
		}
		// e: per-element cost of the verifier's Enc(r), through the same
		// EncryptVector a batch key runs, with the generator table built
		// first so E is the steady-state cost and not the one-time build.
		group.GeneratorTable()
		ms := f.RandVector(cryptoReps, rnd)
		start := time.Now()
		cts, err := sk.EncryptVector(f, ms, rnd)
		p.E = seconds(start, cryptoReps)
		if err != nil {
			panic("costmodel: encryption failed: " + err.Error())
		}

		start = time.Now()
		for i := 0; i < cryptoReps; i++ {
			_ = sk.DecryptExp(cts[i])
		}
		p.D = seconds(start, cryptoReps)

		// h: amortized per-term cost of the homomorphic inner product, on
		// the prover's path: Enc(r) prepared once per batch, then one
		// prepared inner product per instance over the whole proof vector —
		// not one isolated Add+ScalarMul.
		const hLen = 128
		hcts := make([]elgamal.Ciphertext, hLen)
		for i := range hcts {
			hcts[i] = cts[i%len(cts)]
		}
		pv := group.Prepare(hcts)
		ws := f.RandVector(hLen, rnd)
		hReps := cryptoReps/hLen + 1
		start = time.Now()
		for i := 0; i < hReps; i++ {
			if _, err := group.InnerProductPrepared(pv, f, ws, 1); err != nil {
				panic("costmodel: inner product failed: " + err.Error())
			}
		}
		p.H = seconds(start, hReps*hLen)
	}
	return p
}

// fieldWindows is how many times each field constant is timed. One window
// covers only microseconds, so a single preemption can inflate it many
// times over; the fastest window is the machine's cost with that noise
// taken out.
const fieldWindows = 5

// fastest returns the least of fieldWindows runs of measure.
func fastest(measure func() float64) float64 {
	best := measure()
	for range fieldWindows - 1 {
		best = min(best, measure())
	}
	return best
}

func seconds(start time.Time, n int) float64 {
	return time.Since(start).Seconds() / float64(n)
}

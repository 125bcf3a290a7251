// Command zaatar-compile translates a mini-SFDL program to constraints and
// prints the encoding statistics of Figure 9 — the |Z|, |C|, K, K₂ and
// proof-vector sizes that drive the Zaatar-vs-Ginger comparison — without
// running the protocol.
//
// With -bundle (or -store) it additionally runs the prover-side
// preprocessing and persists the compiled program as a content-addressed
// bundle, ready for a zaatar-server artifact store: a server started with
// -store over a pre-seeded directory serves its first session for that
// program without compiling anything.
//
// Usage:
//
//	zaatar-compile -src prog.zr
//	zaatar-compile -src prog.zr -dump      # also print the constraints
//	zaatar-compile -src prog.zr -bundle prog.zb
//	zaatar-compile -src prog.zr -store /var/lib/zaatar/store
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"zaatar"
	"zaatar/internal/constraint"
	"zaatar/internal/field"
	"zaatar/internal/store"
	"zaatar/internal/vc"
)

func main() {
	var (
		srcPath = flag.String("src", "", "path to the mini-SFDL source file")
		f220    = flag.Bool("f220", false, "use the 220-bit field")
		dump    = flag.Bool("dump", false, "dump the quadratic-form constraints")
		bundle  = flag.String("bundle", "", "write the compiled program and its preprocessing to this bundle file")
		stDir   = flag.String("store", "", "save the bundle into this artifact store directory under its canonical name")
		backend = flag.String("backend", zaatar.BackendZaatar, "proof backend to preprocess the bundle for")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile of the compilation to this file")
		memProf = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()
	if *srcPath == "" {
		fmt.Fprintln(os.Stderr, "usage: zaatar-compile -src prog.zr")
		os.Exit(2)
	}
	if *cpuProf != "" {
		pf, err := os.Create(*cpuProf)
		check(err)
		check(pprof.StartCPUProfile(pf))
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			pf, err := os.Create(*memProf)
			check(err)
			defer pf.Close()
			runtime.GC()
			check(pprof.WriteHeapProfile(pf))
		}()
	}
	src, err := os.ReadFile(*srcPath)
	check(err)
	var opts []zaatar.CompileOption
	if *f220 {
		opts = append(opts, zaatar.WithField220())
	}
	prog, err := zaatar.Compile(string(src), opts...)
	check(err)

	st := prog.Stats()
	fmt.Printf("inputs: %d, outputs: %d\n", prog.NumInputs(), prog.NumOutputs())
	fmt.Printf("Ginger encoding:  |Z| = %d  |C| = %d  K = %d  K2 = %d\n",
		st.GingerVars, st.GingerConstraints, st.K, st.K2)
	fmt.Printf("Zaatar encoding:  |Z| = %d  |C| = %d  (%d product variables minted; §4 bound |Z|+K2 = %d  |C|+K2 = %d)\n",
		st.ZaatarVars, st.ZaatarConstraints, st.ZaatarVars-st.GingerVars, st.GingerVars+st.K2, st.GingerConstraints+st.K2)
	fmt.Printf("proof vectors:    |u_ginger| = %d  |u_zaatar| = %d  (ratio %.1f×)\n",
		st.UGinger, st.UZaatar, float64(st.UGinger)/float64(st.UZaatar))
	k2star := (st.GingerVars*st.GingerVars - st.GingerVars) / 2
	fmt.Printf("degeneracy check: K2 = %d vs K2* = %d (§4's transform wins while K2 < K2*; native rows only do better)\n", st.K2, k2star)

	if *dump {
		fmt.Println("\nquadratic-form constraints (pA · pB = pC):")
		for j, c := range prog.Quad.Cons {
			fmt.Printf("%6d: (%s) * (%s) = (%s)\n", j, lcString(prog, c.A), lcString(prog, c.B), lcString(prog, c.C))
		}
	}

	if *bundle != "" || *stDir != "" {
		pre, err := vc.PreprocessBackend(prog, *backend)
		check(err)
		if *bundle != "" {
			key, n, err := store.WriteBundle(*bundle, prog, pre)
			check(err)
			fmt.Printf("bundle: %s (%d bytes, key %s)\n", *bundle, n, key)
		}
		if *stDir != "" {
			st, err := store.Open(*stDir)
			check(err)
			key := store.KeyFor(prog.Source, prog.Field.Name(), *backend)
			n, err := st.Save(key, prog, pre)
			check(err)
			fmt.Printf("stored: %s (%d bytes)\n", st.Path(key), n)
		}
	}
}

func lcString(prog *zaatar.Program, lc constraint.LinComb) string {
	f := prog.Field
	if len(lc) == 0 {
		return "0"
	}
	s := ""
	for i, t := range lc {
		if i > 0 {
			s += " + "
		}
		s += termString(f, t)
	}
	return s
}

func termString(f *field.Field, t constraint.LinTerm) string {
	v := f.SignedBig(t.Coeff)
	switch {
	case t.Var == 0:
		return v.String()
	case v.IsInt64() && v.Int64() == 1:
		return fmt.Sprintf("w%d", t.Var)
	default:
		return fmt.Sprintf("%v·w%d", v, t.Var)
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "zaatar-compile:", err)
		os.Exit(1)
	}
}

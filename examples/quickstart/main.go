// Quickstart: the decrement-by-3 computation of §2.1 of the paper, run
// through the complete verified-computation protocol — compile to
// constraints, outsource a small batch, and check the argument.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"math/big"

	"zaatar"
)

const src = `
// y = x - 3, the running example of §2.1: its equivalent constraints are
// {X - Z = 0, Y - (Z - 3) = 0}.
input x : int32;
output y : int32;
y = x - 3;
`

func main() {
	prog, err := zaatar.Compile(src)
	if err != nil {
		log.Fatal(err)
	}
	st := prog.Stats()
	fmt.Printf("compiled: %d ginger constraints, %d zaatar constraints\n",
		st.GingerConstraints, st.ZaatarConstraints)
	fmt.Printf("proof vectors: ginger %d elements, zaatar %d elements\n\n", st.UGinger, st.UZaatar)

	// A batch of three instances. The production PCP parameters (ρ_lin=20,
	// ρ=8, soundness error < 9.6×10⁻⁷) and the full ElGamal commitment are
	// the defaults.
	batch := [][]*big.Int{
		{big.NewInt(10)},
		{big.NewInt(0)},
		{big.NewInt(-100)},
	}
	res, err := zaatar.Run(prog, batch)
	if err != nil {
		log.Fatal(err)
	}
	for i := range batch {
		fmt.Printf("Ψ(%v): y = %v, verified = %v\n", batch[i][0], res.Outputs[i][0], res.Accepted[i])
	}
	fmt.Printf("\nverifier: query+key setup %v (amortized over the batch), checking %v\n",
		res.Metrics.Setup, res.Metrics.VerifyTotal)
	for i, pt := range res.ProverTimes {
		fmt.Printf("prover %d: solve %v | build proof %v | crypto %v | answer %v\n",
			i, pt.Solve, pt.ConstructU, pt.Crypto, pt.Answer)
	}
}

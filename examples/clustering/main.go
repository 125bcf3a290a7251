// Clustering: outsource PAM (Partitioning Around Medoids) clustering — one
// of the paper's §5 benchmark computations — over a batch, the setting the
// paper motivates: repeated data-parallel work (e.g. the map phase of
// MapReduce or scientific simulations) where one query setup amortizes over
// many instances.
//
// Run with:
//
//	go run ./examples/clustering
package main

import (
	"fmt"
	"log"
	"math/big"
	"math/rand"

	"zaatar"
	"zaatar/internal/benchprogs"
)

func main() {
	// 8 points in 4 dimensions, two clusters, one refinement pass — a
	// scaled-down version of the paper's m=20, d=128 configuration.
	bench := benchprogs.PAM(8, 4, 1)
	prog, err := zaatar.Compile(bench.Source)
	if err != nil {
		log.Fatal(err)
	}
	st := prog.Stats()
	fmt.Printf("PAM m=8 d=4: |C_zaatar| = %d, |u_zaatar| = %d (Ginger would need |u| = %d)\n\n",
		st.ZaatarConstraints, st.UZaatar, st.UGinger)

	// A batch of 6 datasets; reduced PCP repetitions keep the demo quick
	// (drop WithParams for the paper's production soundness).
	rng := rand.New(rand.NewSource(42))
	batch := make([][]*big.Int, 6)
	for i := range batch {
		batch[i] = bench.GenInputs(rng)
	}
	res, err := zaatar.Run(prog, batch, zaatar.WithParams(2, 2), zaatar.WithWorkers(4))
	if err != nil {
		log.Fatal(err)
	}
	for i := range batch {
		if !res.Accepted[i] {
			log.Fatalf("instance %d rejected: %s", i, res.Reasons[i])
		}
		fmt.Printf("dataset %d verified; medoid 0 = %v\n", i, res.Outputs[i][:4])
	}

	// Amortization at work: the verifier's setup happened once for the
	// whole batch.
	perInstanceSetup := res.Metrics.Setup / 6
	fmt.Printf("\nverifier setup %v total → %v per instance at β=6; per-instance checking %v\n",
		res.Metrics.Setup, perInstanceSetup, res.Metrics.VerifyTotal/6)
	fmt.Printf("prover batch wall time %v across 4 workers\n", res.Metrics.ProverWall)
}

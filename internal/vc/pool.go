package vc

import (
	"context"

	"zaatar/internal/par"
)

// ForEach runs fn(0..n-1) over a pool of workers goroutines and returns the
// first error. It is a thin alias for par.ForEach (the implementation moved
// to internal/par so the group-arithmetic kernels in internal/elgamal can
// share the same pool without an import cycle); see that package for the
// cancellation semantics.
//
// This is the scheduling primitive of the pipeline engine: the prover's
// commit and respond phases in RunBatch, and the per-instance phases of
// transport.Service.ServeConn, all run on it.
func ForEach(ctx context.Context, n, workers int, fn func(int) error) error {
	return par.ForEach(ctx, n, workers, fn)
}

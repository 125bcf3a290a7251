package experiments

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"time"

	"zaatar/internal/commit"
	"zaatar/internal/elgamal"
	"zaatar/internal/field"
	"zaatar/internal/prg"
)

// The scaling experiment measures commit throughput — the homomorphic inner
// product against Enc(r), the prover's dominant cryptographic cost — as the
// kernel worker count grows. It exercises the MultiExpParallel sharding of
// commit.CommitPrepared in isolation (the protocol's prover runs each
// kernel on one goroutine and parallelizes across instances instead), so
// the curve is the kernel's own. Speedups are relative to one worker on
// the same machine; a host with fewer physical cores than the largest
// worker count will show the curve flatten there (NumCPU is recorded so
// readers can tell saturation from overhead).

// ScalingResult is the measured commit-throughput curve.
type ScalingResult struct {
	N      int            `json:"n"`       // commitment vector length
	Reps   int            `json:"reps"`    // commits measured per point
	NumCPU int            `json:"num_cpu"` // cores visible to the runtime
	Points []ScalingPoint `json:"points"`
}

// ScalingPoint is one worker count's measurement.
type ScalingPoint struct {
	Workers       int     `json:"workers"`
	CommitMs      float64 `json:"commit_ms"` // mean per commit
	CommitsPerSec float64 `json:"commits_per_sec"`
	// SpeedupX is relative to the 1-worker point, which RunScaling
	// guarantees leads the curve (prepending it if not requested).
	SpeedupX float64 `json:"speedup_x"`
}

// scalingN returns the commitment vector length per scale, sized so one
// point takes seconds, not minutes.
func scalingN(s Scale) int {
	switch s {
	case ScaleSmall:
		return 256
	case ScalePaper:
		return 4096
	default:
		return 1024
	}
}

// RunScaling measures prepared commit calls over the production 128-bit
// group at each worker count. The Enc(r) key and the weight vector are
// fixed across all points, so the only variable is the sharding. The curve
// always opens with a 1-worker reference point — prepended when the
// requested counts don't start with one — so SpeedupX is genuinely the gain
// over serial commits, whatever counts the caller asked for.
func RunScaling(o Options, workerCounts []int) (*ScalingResult, error) {
	if !o.Crypto {
		return nil, errors.New("experiments: scaling requires crypto (drop -nocrypto)")
	}
	if len(workerCounts) == 0 {
		workerCounts = []int{1, 2, 4, 8}
	}
	if workerCounts[0] != 1 {
		workerCounts = append([]int{1}, workerCounts...)
	}
	f := field.F128()
	g := elgamal.GroupF128()
	rnd := prg.NewFromSeed([]byte("scaling"), uint64(o.Seed))
	sk, err := g.GenerateKey(rnd)
	if err != nil {
		return nil, err
	}
	n := scalingN(o.Scale)
	maxW := 1
	for _, w := range workerCounts {
		if w > maxW {
			maxW = w
		}
	}
	key, err := commit.NewKeyParallel(f, g, sk, n, rnd, maxW)
	if err != nil {
		return nil, err
	}
	pv := commit.Prepare(g, key.EncR)
	u := f.RandVector(n, rnd)

	reps := 3
	if o.Scale == ScaleSmall {
		reps = 2
	}
	res := &ScalingResult{N: n, Reps: reps, NumCPU: runtime.NumCPU()}
	for _, w := range workerCounts {
		// One untimed warm-up commit settles table caches and the pool.
		if _, err := commit.CommitPrepared(g, f, pv, u, w); err != nil {
			return nil, err
		}
		start := time.Now()
		for r := 0; r < reps; r++ {
			if _, err := commit.CommitPrepared(g, f, pv, u, w); err != nil {
				return nil, err
			}
		}
		el := time.Since(start)
		pt := ScalingPoint{
			Workers:       w,
			CommitMs:      msOf(el) / float64(reps),
			CommitsPerSec: float64(reps) / el.Seconds(),
		}
		if len(res.Points) > 0 && res.Points[0].CommitMs > 0 {
			pt.SpeedupX = res.Points[0].CommitMs / pt.CommitMs
		} else {
			pt.SpeedupX = 1
		}
		res.Points = append(res.Points, pt)
	}
	return res, nil
}

// RenderScaling prints the throughput curve.
func RenderScaling(w io.Writer, r *ScalingResult) {
	fmt.Fprintf(w, "commit scaling (n=%d, %d reps/point, %d cpus visible)\n", r.N, r.Reps, r.NumCPU)
	t := newTable("workers", "commit", "commits/s", "speedup")
	for _, p := range r.Points {
		t.add(fmt.Sprintf("%d", p.Workers),
			fmtDur(p.CommitMs/1e3),
			fmt.Sprintf("%.2f", p.CommitsPerSec),
			fmt.Sprintf("%.2fx", p.SpeedupX))
	}
	t.render(w)
}

package zaatar

import (
	"context"
	"crypto/sha256"
	"fmt"
	"net"
	"slices"
	"strings"
	"sync/atomic"

	"zaatar/internal/farm"
	"zaatar/internal/obs"
	"zaatar/internal/transport"
)

// FarmError attributes a client failure to one prover: Addr names the
// worker, Leg its connection index, and Unwrap exposes the cause. Every
// client — Dial'ed or DialFarm'ed — wraps each failure of a prover's
// connection in one. RunBatch returns one only when a shard could not be
// recovered (a prover-side error, or no live worker left to requeue it on;
// a Dial'ed client has no other worker); a mere verification failure is
// never an error — it surfaces as SessionResult.Accepted[i] == false.
type FarmError = transport.FarmError

// rankAddrs orders worker addresses by rendezvous hash of the program
// digest: each worker scores sha256(srcDigest ‖ addr), and higher scores
// front the ranking. Every farm for the same program computes the same
// order whatever order the caller listed the workers in, which is what
// keeps shard placement (and so each worker's program cache) stable
// across restarts.
func rankAddrs(addrs []string, src string) []string {
	digest := sha256.Sum256([]byte(src))
	score := func(addr string) string {
		sum := sha256.Sum256(append(digest[:], addr...))
		return string(sum[:])
	}
	out := slices.Clone(addrs)
	slices.SortStableFunc(out, func(a, b string) int { return strings.Compare(score(b), score(a)) })
	return out
}

// DialFarm connects to a fleet of prover workers and returns a Client that
// shards every batch across them: one contiguous shard per live worker,
// placed affinity-first, each run as an independent mini-batch (its own
// commitment key and query seed, so shards are sound to run concurrently
// and to replay). When a worker dies mid-batch, its shard is requeued onto
// the survivors once the other shards are done, round after round until
// the batch verifies or no worker is left; only an unrecoverable failure
// surfaces, as a *FarmError naming the worker. The
// returned Client behaves exactly like a Dial'ed one — same RunBatch, same
// result shape, verdicts index-aligned with the batch. Scheduling telemetry
// lands in the farm.* metric series of the registry given by WithMetrics
// (or the default registry).
func DialFarm(ctx context.Context, addrs []string, src string, opts ...RunOption) (*Client, error) {
	o := buildRunOptions(opts)
	var clean []string
	for _, a := range addrs {
		if a != "" {
			clean = append(clean, a)
		}
	}
	if len(clean) == 0 {
		return nil, fmt.Errorf("zaatar: no worker addresses")
	}
	return dial(ctx, rankAddrs(clean, src), src, o)
}

// ServeWorker runs a farm worker on ln: an ordinary prover service (farm
// shards arrive as ordinary wire batches, so any Serve-based server can be
// a worker) that additionally reports the farm.worker.up gauge — 1 while
// serving, 0 once drained — in the registry given by WithServerMetrics (or
// the default registry).
func ServeWorker(ctx context.Context, ln net.Listener, opts ...ServerOption) error {
	var o serverOptions
	for _, fn := range opts {
		fn(&o)
	}
	reg := o.svc.Obs
	if reg == nil {
		reg = obs.Default()
	}
	var up atomic.Int64
	up.Store(1)
	reg.RegisterGauge(farm.MetricWorkerUp, func() float64 { return float64(up.Load()) })
	defer up.Store(0)
	return Serve(ctx, ln, opts...)
}

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
// recovered (every retry exhausted, or all workers lost; a Dial'ed client
// has no other worker to retry on); a mere verification failure is never
// an error — it surfaces as SessionResult.Accepted[i] == false.
type FarmError = transport.FarmError

// WithShardRetries bounds how many times a farm may requeue one shard after
// a worker death before failing the batch. The default is 2; negative
// disables requeueing (any worker death fails the batch).
func WithShardRetries(n int) RunOption {
	return runOption(func(o *options) { o.shardRetries = n })
}

// WithFarmShardSize fixes the number of instances per DialFarm shard. By
// default each live worker gets one contiguous shard of the batch (sizes
// within one of each other), because every shard costs a commitment key:
// at bench/'s bisection size one key is 704 kB of Enc(r) on the wire and
// about 0.42 s of verifier work. The price is that a slow worker cannot
// hand part of its shard to an idle one. A smaller size buys work stealing
// — idle workers take queued shards from stragglers, useful on uneven
// workers — at one key per shard. Dial ignores it: its one worker takes
// each batch whole.
func WithFarmShardSize(n int) RunOption {
	return runOption(func(o *options) { o.shardSize = n })
}

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
// shards every batch across them: each shard runs as an independent
// mini-batch (its own commitment key and query seed, so shards are sound to
// run concurrently and to replay) on one worker, placed affinity-first, one
// shard per live worker unless WithFarmShardSize asks for finer shards and
// work stealing. A worker that dies mid-batch has its shard
// requeued onto the survivors (bounded by WithShardRetries); only an
// unrecoverable failure surfaces, as a *FarmError naming the worker. The
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

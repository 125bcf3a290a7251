// Package farm coordinates one verifier over a fleet of prover workers.
//
// A Farm wraps a multi-leg transport.Session (one leg per worker) and
// shards each batch across the legs: every shard is an independent wire
// mini-batch — its own commit request, its own query seed, its own
// commitment key — run by vc.Drive over that leg's link (Session.Leg).
// Per-shard keys are what make the scheme sound without a global barrier:
// the workers are collectively one adversary, and each shard's seed is
// revealed only after that shard's commitments are in, exactly the
// per-batch discipline of Verifier.Reseed. A requeued or stolen
// shard therefore replays on another worker with fresh randomness, never
// re-exposing a seed whose commitments the dead worker already saw.
//
// Scheduling is affinity-first with work stealing: shard i prefers the
// worker ranked i mod N in the session's leg order (zaatar.DialFarm orders
// legs by rendezvous hash of the program, so the same workers front the
// ranking across restarts and keep their program caches warm), and an idle
// worker steals any queued shard. When a worker dies mid-shard the shard is
// requeued (bounded by Options.ShardRetries) and the leg is retired; a
// worker that reports a prover-side error is healthy, so that error is
// fatal rather than retried.
package farm

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math/big"
	"sync"
	"time"

	"zaatar/internal/compiler"
	"zaatar/internal/obs"
	"zaatar/internal/transport"
	"zaatar/internal/vc"
)

// Farm metric names (see PROTOCOL.md §9).
const (
	// MetricShards counts shards dispatched, labeled by worker address.
	MetricShards = "farm.shards"
	// MetricShardRequeued counts shards requeued after a worker died
	// mid-shard.
	MetricShardRequeued = "farm.shard.requeued"
	// MetricShardStolen counts shards run by a non-preferred worker.
	MetricShardStolen = "farm.shard.stolen"
	// MetricWorkerFailures counts workers retired after a leg failure.
	MetricWorkerFailures = "farm.worker.failures"
	// MetricWorkersLive gauges how many legs are still serving.
	MetricWorkersLive = "farm.workers.live"
	// MetricWorkerUp is the gauge a worker process sets to 1 while serving
	// (zaatar.ServeWorker registers it).
	MetricWorkerUp = "farm.worker.up"
	// MetricBatchWall / MetricShardWall time one farm batch / one shard.
	MetricBatchWall = "farm.batch"
	MetricShardWall = "farm.shard"
	// LabelWorker is the worker-address label on MetricShards.
	LabelWorker = "worker"
)

// Options tune the coordinator. The zero value is usable.
type Options struct {
	// ShardRetries bounds how many times one shard may be requeued after a
	// worker death before the batch fails; 0 means the default (2), and a
	// negative value disables requeueing.
	ShardRetries int
	// ShardSize fixes the instances per shard; 0 sizes shards so each live
	// worker expects about two (small enough to steal, large enough to
	// amortize the per-shard key generation).
	ShardSize int
	// Workers is the verification parallelism within one shard.
	Workers int
	// Seed fixes shard query seeds (each re-key appends a counter; see
	// vc.DeriveSeed); empty draws fresh randomness per shard. Must match the
	// seed the session was dialed with for the dial-time verifier to line
	// up.
	Seed []byte
	// Obs receives farm.* metrics and spans; nil uses obs.Default().
	Obs *obs.Registry
	// Logger receives worker-death and requeue records; nil disables.
	Logger *slog.Logger
}

// Farm drives a multi-worker prover session. Create with New; RunBatch
// then schedules each batch across the live workers. RunBatch calls are
// serialized internally, like Session.RunBatch.
type Farm struct {
	sess *transport.Session
	opts Options
	reg  *obs.Registry
	log  *slog.Logger

	runMu sync.Mutex // one batch in flight at a time

	mu    sync.Mutex
	alive []bool
	live  int
	seq   int // shard seed counter, monotone across batches and forks

	// pool holds the verifiers no shard is using, the dial-time one
	// first. A verifier is forked only when every pooled one is busy, so
	// there are never more than one per worker.
	pool chan *vc.Verifier
}

// New wraps an open session in a coordinator; each shard is one wire batch
// on its leg.
func New(sess *transport.Session, opts Options) (*Farm, error) {
	if sess.NumLegs() < 1 {
		return nil, errors.New("farm: session has no workers")
	}
	f := &Farm{
		sess:  sess,
		opts:  opts,
		reg:   opts.Obs,
		log:   obs.OrNop(opts.Logger),
		alive: make([]bool, sess.NumLegs()),
		live:  sess.NumLegs(),
		pool:  make(chan *vc.Verifier, sess.NumLegs()),
	}
	f.pool <- sess.Verifier()
	if f.reg == nil {
		f.reg = obs.Default()
	}
	for i := range f.alive {
		f.alive[i] = true
	}
	f.reg.RegisterGauge(MetricWorkersLive, func() float64 {
		f.mu.Lock()
		defer f.mu.Unlock()
		return float64(f.live)
	})
	return f, nil
}

// Program, Backend, SetupDuration and Close delegate to the underlying
// session, so a Farm serves wherever a Session does.
func (f *Farm) Program() *compiler.Program   { return f.sess.Program() }
func (f *Farm) Backend() string              { return f.sess.Backend() }
func (f *Farm) SetupDuration() time.Duration { return f.sess.SetupDuration() }
func (f *Farm) Close() error                 { return f.sess.Close() }

// LiveWorkers reports how many workers are still serving.
func (f *Farm) LiveWorkers() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.live
}

// retries resolves Options.ShardRetries (0 = default 2, negative = none).
func (f *Farm) retries() int {
	switch {
	case f.opts.ShardRetries > 0:
		return f.opts.ShardRetries
	case f.opts.ShardRetries < 0:
		return 0
	default:
		return 2
	}
}

func (f *Farm) nextSeed() []byte {
	f.mu.Lock()
	n := f.seq
	f.seq++
	f.mu.Unlock()
	return vc.DeriveSeed(f.opts.Seed, n)
}

// verifier hands one shard a verifier with fresh per-shard state: a pooled
// one, re-keyed if its key is spent, or a new Fork of the dial-time
// verifier when every pooled one is busy. The shard returns it to the pool.
func (f *Farm) verifier(ctx context.Context) (*vc.Verifier, error) {
	select {
	case v := <-f.pool:
		if v.Spent() {
			if err := v.Reseed(ctx, f.nextSeed()); err != nil {
				f.pool <- v
				return nil, err
			}
		}
		return v, nil
	default:
		return f.sess.Verifier().Fork(ctx, f.nextSeed())
	}
}

// liveLegs snapshots the indices of legs still serving, in rank order.
func (f *Farm) liveLegs() []int {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]int, 0, f.live)
	for i, ok := range f.alive {
		if ok {
			out = append(out, i)
		}
	}
	return out
}

// workerDied retires leg i: the liveness bit drops, the connection closes,
// and the failure counter ticks. Idempotent per leg.
func (f *Farm) workerDied(i int, cause error) {
	f.mu.Lock()
	wasAlive := f.alive[i]
	if wasAlive {
		f.alive[i] = false
		f.live--
	}
	f.mu.Unlock()
	if !wasAlive {
		return
	}
	f.reg.Counter(MetricWorkerFailures).Inc()
	_ = f.sess.CloseLeg(i)
	f.log.Warn("farm worker died", "worker", f.sess.LegAddr(i), "leg", i, "err", cause)
}

// isWorkerDeath classifies a shard failure: a *FarmError that is not a
// *RemoteError and not the caller's cancellation means the leg itself broke
// (connection loss, malformed frame) — the worker is gone and its shard can
// be requeued elsewhere. A RemoteError came from a live worker's prover and
// would fail identically on any worker, so it is fatal.
func isWorkerDeath(ctx context.Context, err error) (*transport.FarmError, bool) {
	var fe *transport.FarmError
	if !errors.As(err, &fe) {
		return nil, false
	}
	var re *transport.RemoteError
	if errors.As(err, &re) {
		return nil, false
	}
	if ctx.Err() != nil {
		return nil, false
	}
	return fe, true
}

// RunBatch proves and verifies one batch across the farm. The result is
// index-aligned with batch, identical in shape to Session.RunBatch. On a
// nil error every instance was proved and verified (acceptance per instance
// is in the result); a *transport.FarmError (possibly wrapped) names the
// worker behind an unrecoverable leg failure. After a non-nil error the
// session's legs may be mid-protocol — close the farm rather than reuse it.
func (f *Farm) RunBatch(ctx context.Context, batch [][]*big.Int) (*transport.SessionResult, error) {
	f.runMu.Lock()
	defer f.runMu.Unlock()
	n := len(batch)
	if n == 0 {
		return nil, errors.New("farm: empty batch")
	}
	live := f.liveLegs()
	if len(live) == 0 {
		return nil, errors.New("farm: no live workers")
	}
	sp := f.reg.StartSpan(MetricBatchWall)
	defer sp.End()
	size := f.opts.ShardSize
	if size <= 0 {
		size = max(1, (n+2*len(live)-1)/(2*len(live)))
	}
	q := newShardQueue()
	for s, i := 0, 0; s < n; i++ {
		e := min(s+size, n)
		q.tasks = append(q.tasks, &task{lo: s, hi: e, pref: live[i%len(live)]})
		s = e
	}
	q.outstanding = len(q.tasks)
	q.workers = len(live)
	// A cancelled caller context must wake workers parked in cond.Wait.
	stop := context.AfterFunc(ctx, func() { q.fail(ctx.Err()) })
	defer stop()
	out := &transport.SessionResult{
		Accepted: make([]bool, n),
		Reasons:  make([]string, n),
		Outputs:  make([][]*big.Int, n),
	}
	var wg sync.WaitGroup
	for _, leg := range live {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f.legWorker(ctx, leg, q, batch, out)
		}()
	}
	wg.Wait()
	if err := q.failure(); err != nil {
		return nil, err
	}
	return out, nil
}

// task is one shard: instances [lo,hi) of the batch, preferring worker
// pref, requeued retries times so far.
type task struct {
	lo, hi  int
	pref    int
	retries int
}

// shardQueue is the scheduler: a mutex/cond work queue that hands each
// worker its preferred shards first and lets idle workers steal the rest.
type shardQueue struct {
	mu          sync.Mutex
	cond        *sync.Cond
	tasks       []*task
	outstanding int // tasks not yet completed
	workers     int // worker goroutines still running
	err         error
}

func newShardQueue() *shardQueue {
	q := &shardQueue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// pop blocks until a task is available for leg (preferred first, then any),
// the queue fails, or all tasks complete; nil means stop. stolen reports
// that the task preferred another worker.
func (q *shardQueue) pop(leg int) (t *task, stolen bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		if q.err != nil || q.outstanding == 0 {
			return nil, false
		}
		for i, c := range q.tasks {
			if c.pref == leg {
				q.tasks = append(q.tasks[:i], q.tasks[i+1:]...)
				return c, false
			}
		}
		if len(q.tasks) > 0 {
			c := q.tasks[0]
			q.tasks = q.tasks[1:]
			return c, true
		}
		q.cond.Wait()
	}
}

func (q *shardQueue) done() {
	q.mu.Lock()
	q.outstanding--
	if q.outstanding == 0 {
		q.cond.Broadcast()
	}
	q.mu.Unlock()
}

func (q *shardQueue) requeue(t *task) {
	q.mu.Lock()
	q.tasks = append(q.tasks, t)
	q.cond.Broadcast()
	q.mu.Unlock()
}

func (q *shardQueue) fail(err error) {
	q.mu.Lock()
	if q.err == nil && err != nil {
		q.err = err
	}
	q.cond.Broadcast()
	q.mu.Unlock()
}

// retire records a worker goroutine exiting; if the last worker leaves with
// shards still outstanding (every worker died), the queue fails with the
// final worker's error so blocked pops — there are none left — and the
// driver see it.
func (q *shardQueue) retire(err error) {
	q.mu.Lock()
	q.workers--
	if q.workers == 0 && q.outstanding > 0 && q.err == nil {
		if err == nil {
			err = errors.New("farm: all workers lost with shards outstanding")
		}
		q.err = err
	}
	q.cond.Broadcast()
	q.mu.Unlock()
}

func (q *shardQueue) failure() error {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.err
}

// legWorker drains the queue over one leg until the queue empties, a fatal
// error lands, or this leg's worker dies.
func (f *Farm) legWorker(ctx context.Context, leg int, q *shardQueue, batch [][]*big.Int, out *transport.SessionResult) {
	for {
		t, stolen := q.pop(leg)
		if t == nil {
			q.retire(nil)
			return
		}
		if stolen {
			f.reg.Counter(MetricShardStolen).Inc()
		}
		err := f.runShard(ctx, leg, t, batch, out)
		if err == nil {
			q.done()
			continue
		}
		fe, death := isWorkerDeath(ctx, err)
		if !death {
			q.fail(err)
			q.retire(err)
			return
		}
		f.workerDied(leg, fe.Err)
		if t.retries >= f.retries() {
			q.fail(fmt.Errorf("farm: shard [%d,%d) failed after %d attempts: %w", t.lo, t.hi, t.retries+1, err))
		} else {
			t.retries++
			f.reg.Counter(MetricShardRequeued).Inc()
			f.log.Info("farm shard requeued", "lo", t.lo, "hi", t.hi, "attempt", t.retries, "worker", f.sess.LegAddr(leg))
			q.requeue(t)
		}
		q.retire(err)
		return
	}
}

// runShard drives one shard as a wire mini-batch on one leg under its own
// verifier, writing its verdicts into the shard's slice of out.
func (f *Farm) runShard(ctx context.Context, leg int, t *task, batch [][]*big.Int, out *transport.SessionResult) error {
	sp := f.reg.StartSpan(MetricShardWall)
	defer sp.End()
	f.reg.CounterVec(MetricShards, LabelWorker).With(f.sess.LegAddr(leg)).Inc()
	v, err := f.verifier(ctx)
	if err != nil {
		return err
	}
	defer func() { f.pool <- v }()
	res, err := vc.Drive(ctx, v, f.sess.Leg(leg), batch[t.lo:t.hi], f.opts.Workers)
	if err != nil {
		return err
	}
	copy(out.Accepted[t.lo:], res.Accepted)
	copy(out.Reasons[t.lo:], res.Reasons)
	copy(out.Outputs[t.lo:], res.Outputs)
	return nil
}

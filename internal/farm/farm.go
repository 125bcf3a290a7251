// Package farm coordinates one verifier over a fleet of prover workers.
//
// A Farm wraps a multi-leg transport.Session (one leg per worker) and
// shards each batch across the legs: every shard is an independent wire
// mini-batch — its own commit request, its own query seed, its own
// commitment key — driven over one leg via Session.ShardCommit and
// Session.ShardRespond. Per-shard keys are what make the scheme sound
// without a global barrier: the workers are collectively one adversary, and
// each shard's seed is revealed only after that shard's commitments are in,
// exactly the per-batch discipline of Verifier.Reseed. A requeued or stolen
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
	// MetricSpanBatch / MetricSpanShard time one farm batch / one shard.
	MetricSpanBatch = "farm.batch"
	MetricSpanShard = "farm.shard"
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
	// Seed fixes shard query seeds (each shard appends a counter); empty
	// draws fresh randomness per shard. Must match the seed the session was
	// dialed with for the dial-time verifier to line up.
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
	seq   int // shard seed counter, monotone across batches

	vmu   sync.Mutex
	vmade int
	vpool chan *pooledVerifier
}

// pooledVerifier is a free-list entry; used marks state already consumed by
// a shard (or abandoned mid-shard), so the next acquire must Reseed before
// handing it out.
type pooledVerifier struct {
	v    *vc.Verifier
	used bool
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
		vpool: make(chan *pooledVerifier, sess.NumLegs()),
		vmade: 1,
	}
	if f.reg == nil {
		f.reg = obs.Default()
	}
	for i := range f.alive {
		f.alive[i] = true
	}
	// The dial-time verifier is pool member #1, fresh from the handshake.
	f.vpool <- &pooledVerifier{v: sess.Verifier()}
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

// NumWorkers reports the fleet size; LiveWorkers how many are still serving.
func (f *Farm) NumWorkers() int { return f.sess.NumLegs() }

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

// shardSeed derives shard n's query seed; empty base stays empty (fresh
// randomness per shard), mirroring the session's per-batch derivation.
func shardSeed(base []byte, n int) []byte {
	if len(base) == 0 {
		return nil
	}
	out := make([]byte, 0, len(base)+4)
	out = append(out, base...)
	return append(out, byte(n>>24), byte(n>>16), byte(n>>8), byte(n))
}

func (f *Farm) nextSeed() []byte {
	f.mu.Lock()
	n := f.seq
	f.seq++
	f.mu.Unlock()
	return shardSeed(f.opts.Seed, n)
}

// acquire hands out a verifier with fresh per-shard state: a pooled one
// (reseeded if its state was consumed), or a new Fork of the dial-time
// verifier while the pool is below the fleet size.
func (f *Farm) acquire(ctx context.Context) (*pooledVerifier, error) {
	var pv *pooledVerifier
	select {
	case pv = <-f.vpool:
	default:
		f.vmu.Lock()
		if f.vmade < f.sess.NumLegs() {
			f.vmade++
			f.vmu.Unlock()
			nv, err := f.sess.Verifier().Fork(ctx, f.nextSeed())
			if err != nil {
				f.vmu.Lock()
				f.vmade--
				f.vmu.Unlock()
				return nil, err
			}
			return &pooledVerifier{v: nv}, nil
		}
		f.vmu.Unlock()
		select {
		case pv = <-f.vpool:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if pv.used {
		if err := pv.v.Reseed(ctx, f.nextSeed()); err != nil {
			f.release(pv)
			return nil, err
		}
		pv.used = false
	}
	return pv, nil
}

func (f *Farm) release(pv *pooledVerifier) {
	pv.used = true
	f.vpool <- pv
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
	if len(batch) == 0 {
		return nil, errors.New("farm: empty batch")
	}
	if len(f.liveLegs()) == 0 {
		return nil, errors.New("farm: no live workers")
	}
	sp := f.reg.StartSpan(MetricSpanBatch)
	defer sp.End()
	out := &transport.SessionResult{
		Accepted: make([]bool, len(batch)),
		Reasons:  make([]string, len(batch)),
		Outputs:  make([][]*big.Int, len(batch)),
	}
	if err := f.runSharded(ctx, batch, out); err != nil {
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

// runSharded schedules batch across the live workers and writes verdicts
// into the matching positions of out.
func (f *Farm) runSharded(ctx context.Context, batch [][]*big.Int, out *transport.SessionResult) error {
	live := f.liveLegs()
	if len(live) == 0 {
		return errors.New("farm: no live workers")
	}
	n := len(batch)
	size := f.opts.ShardSize
	if size <= 0 {
		size = (n + 2*len(live) - 1) / (2 * len(live))
		if size < 1 {
			size = 1
		}
	}
	q := newShardQueue()
	for s, i := 0, 0; s < n; i++ {
		e := s + size
		if e > n {
			e = n
		}
		q.tasks = append(q.tasks, &task{lo: s, hi: e, pref: live[i%len(live)]})
		s = e
	}
	q.outstanding = len(q.tasks)
	q.workers = len(live)
	// A cancelled caller context must wake workers parked in cond.Wait.
	stop := context.AfterFunc(ctx, func() { q.fail(ctx.Err()) })
	defer stop()
	var wg sync.WaitGroup
	for _, leg := range live {
		wg.Add(1)
		go func(leg int) {
			defer wg.Done()
			f.legWorker(ctx, leg, q, batch, out)
		}(leg)
	}
	wg.Wait()
	return q.failure()
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
		pv, err := f.acquire(ctx)
		if err != nil {
			q.fail(err)
			q.retire(err)
			return
		}
		err = f.runShard(ctx, leg, pv.v, t, batch, out)
		f.release(pv)
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

// runShard runs one shard as a wire mini-batch on one leg: commit, decommit,
// respond, verify, with verdicts written to the shard's slice of out.
func (f *Farm) runShard(ctx context.Context, leg int, v *vc.Verifier, t *task, batch [][]*big.Int, out *transport.SessionResult) error {
	sp := f.reg.StartSpan(MetricSpanShard)
	defer sp.End()
	f.reg.CounterVec(MetricShards, LabelWorker).With(f.sess.LegAddr(leg)).Inc()
	shard := batch[t.lo:t.hi]
	cms, err := f.sess.ShardCommit(ctx, leg, v.Setup(), shard)
	if err != nil {
		return err
	}
	dreq, err := v.Decommit()
	if err != nil {
		return err
	}
	resps, err := f.sess.ShardRespond(ctx, leg, dreq, len(shard))
	if err != nil {
		return err
	}
	workers := f.opts.Workers
	if workers < 1 {
		workers = 1
	}
	return vc.ForEach(ctx, len(shard), workers, func(i int) error {
		ok, reason := v.VerifyInstance(ctx, shard[i], cms[i], resps[i])
		out.Accepted[t.lo+i] = ok
		out.Reasons[t.lo+i] = reason
		out.Outputs[t.lo+i] = cms[i].Output
		return nil
	})
}

// Package farm is the verifier's wire client: one verifier over one or
// more prover workers, each behind a handshaken transport.Conn.
//
// New compiles the program once, opens every worker's connection
// concurrently, requires the workers to agree on the backend and the io
// shape, and builds the one dial-time verifier. RunBatch then shards each
// batch across the live workers: every shard is an independent wire batch
// — its own commit request, its own query seed, its own commitment key —
// run by vc.Drive over that worker's connection. By default each live
// worker gets one contiguous shard (sizes differ by at most one), so a
// batch costs one key per leg: a key is the verifier's Enc(r) plus the
// prover's query regeneration (at bench/'s bisection size 704 kB on the
// wire and about 0.42 s of verifier work), and it is the per-batch set-up
// the batch exists to amortize. A lone live worker thus gets the whole
// batch, so a session over one prover (zaatar.Dial) sends one wire batch
// per batch, under one key. Per-shard keys are what make the scheme sound
// without a global barrier: the workers are collectively one adversary,
// and each shard's seed is revealed only after that shard's commitments
// are in, exactly the per-batch discipline of Verifier.Reseed. A requeued
// or stolen shard therefore replays on another worker with fresh
// randomness, never re-exposing a seed whose commitments the dead worker
// already saw.
//
// Scheduling is affinity-first: shard i prefers the worker ranked i mod N
// in the connection order (zaatar.DialFarm orders workers by rendezvous
// hash of the program, so the same workers front the ranking across
// restarts and keep their program caches warm). A worker that has run out
// of its own shards steals any requeued shard and any shard whose worker is
// busy with another. With one shard per leg no worker ever has a second, so
// a slow worker cannot hand work to an idle one; Options.ShardSize buys
// finer shards and work stealing at the price of a key per shard. When a
// worker dies mid-shard the shard is requeued (bounded by
// Options.ShardRetries) and the worker is retired; a worker that reports a
// prover-side error is healthy, so that error is fatal rather than retried.
package farm

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math/big"
	"net"
	"sync"
	"time"

	"zaatar/internal/compiler"
	"zaatar/internal/elgamal"
	"zaatar/internal/obs"
	"zaatar/internal/obs/trace"
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
	// MetricShardWall times one shard; a whole batch is
	// vc.phase{phase="batch"}, as in process.
	MetricShardWall = "farm.shard"
	// LabelWorker is the worker-address label on MetricShards.
	LabelWorker = "worker"
)

// Options configure a farm client. The zero value is usable.
type Options struct {
	// Seed fixes the verifier's randomness; empty draws fresh randomness.
	// The dial-time verifier uses it as is, and the n-th re-key or fork
	// after it uses vc.DeriveSeed(Seed, n), so a fixed seed still yields
	// deterministic — but per-batch and per-shard distinct — queries.
	Seed []byte
	// Group overrides the ElGamal group (tests with non-production fields).
	Group *elgamal.Group
	// Program, when non-nil, is the already-compiled program for the
	// hello's source over the hello's field, letting a caller that compiled
	// the source to pick its backend offer skip the second compilation.
	Program *compiler.Program
	// Workers is the verification parallelism within one shard; 0 or 1
	// verifies serially.
	Workers int
	// IOTimeout, when positive, is the per-message read/write deadline on
	// every worker connection.
	IOTimeout time.Duration
	// ShardRetries bounds how many times one shard may be requeued after a
	// worker death before the batch fails; 0 means the default (2), and a
	// negative value disables requeueing.
	ShardRetries int
	// ShardSize fixes the instances per shard. 0 gives each live worker
	// one contiguous shard (a lone worker the whole batch), so every leg
	// pays one key per batch; a positive size cuts finer shards that idle
	// workers can steal from stragglers, each under its own key.
	ShardSize int
	// Obs receives the client's transport.client.*, vc.* and farm.*
	// metrics; nil uses obs.Default().
	Obs *obs.Registry
	// Logger receives the session's records (negotiation, each batch,
	// worker deaths and requeues) carrying backend and program_hash
	// attributes, plus trace correlation when the dial context carries a
	// trace. Nil disables logging.
	Logger *slog.Logger
}

// Farm is the verifier side of a kept-alive session with its workers.
// Create with New; RunBatch then schedules each batch across the live
// workers. RunBatch calls are serialized internally.
type Farm struct {
	opts    Options
	reg     *obs.Registry
	log     *slog.Logger
	prog    *compiler.Program
	backend string
	base    *vc.Verifier // the dial-time verifier; forks share its precomputation
	workers []*worker
	tc      *trace.Ctx // the session's trace position: batches nest under it
	sessTr  *trace.Span
	obsSpan obs.Span

	runMu   sync.Mutex // one batch in flight at a time; Close waits for it
	closed  bool
	batches int // batches verified

	mu    sync.Mutex
	live  int
	seq   int           // re-key counter, monotone across batches and forks
	setup time.Duration // the dial-time verifier's set-up

	// pool holds the verifiers no shard is using, the dial-time one
	// first. A verifier is forked only when every pooled one is busy, so
	// there are never more than one per worker.
	pool chan *vc.Verifier
}

// worker is one prover: its connection, named for failure attribution. It
// is the vc.ProverLink a shard drives.
type worker struct {
	conn  *transport.Conn
	addr  string
	i     int
	alive bool // guarded by Farm.mu
}

// fail wraps a failure of the worker's connection in a
// *transport.FarmError naming the worker.
func (w *worker) fail(err error) error {
	if err == nil {
		return nil
	}
	return &transport.FarmError{Addr: w.addr, Leg: w.i, Err: err}
}

func (w *worker) Commit(ctx context.Context, req *vc.CommitRequest, instances [][]*big.Int) ([]*vc.Commitment, error) {
	cms, err := w.conn.Commit(ctx, req, instances)
	return cms, w.fail(err)
}

func (w *worker) Respond(ctx context.Context, dec *vc.DecommitRequest, emit func(int, *vc.Response)) error {
	return w.fail(w.conn.Respond(ctx, dec, emit))
}

// New opens a session over conns, one per worker, named by the
// index-aligned addrs (the names label farm.shards and every
// *transport.FarmError). It stamps and validates the hello, compiles the
// program once, opens every connection concurrently, requires the workers
// to agree on the backend and the io shape, and builds the dial-time
// verifier. The context bounds only the dial; the session lives until
// Close. New owns conns: on failure it closes them all.
func New(ctx context.Context, addrs []string, conns []net.Conn, hello transport.Hello, opts Options) (_ *Farm, err error) {
	defer func() {
		if err != nil {
			for _, c := range conns {
				_ = c.Close()
			}
			if ctx.Err() != nil {
				err = ctx.Err()
			}
		}
	}()
	if len(conns) == 0 || len(addrs) != len(conns) {
		return nil, fmt.Errorf("farm: %d worker names for %d connections", len(addrs), len(conns))
	}
	if hello, err = hello.Stamp(); err != nil {
		return nil, err
	}
	reg := opts.Obs
	if reg == nil {
		reg = obs.Default()
	}

	// Root the session's trace (if the caller attached one) and stamp its
	// identifiers into the hello so the workers' spans join this trace.
	sessTr, tctx := trace.Child(ctx, "transport.session")
	sessTr.WithArg("provers", int64(len(conns)))
	f := &Farm{
		opts:    opts,
		reg:     reg,
		log:     obs.OrNop(opts.Logger).With(transport.LabelProgramHash, transport.ProgramHash(hello.Source)),
		prog:    opts.Program,
		workers: make([]*worker, len(conns)),
		tc:      trace.FromContext(tctx),
		sessTr:  sessTr,
		obsSpan: reg.StartSpan(transport.MetricSpanClient),
		live:    len(conns),
		seq:     1,
		pool:    make(chan *vc.Verifier, len(conns)),
	}
	defer func() {
		if err != nil {
			f.finish()
		}
	}()
	hello.Trace, hello.TraceParent = f.tc.TraceID(), f.tc.SpanID()

	if f.prog == nil {
		compileTr := trace.Start(tctx, "verifier.compile")
		f.prog, err = compiler.Compile(hello.Field(), hello.Source)
		compileTr.End()
		if err != nil {
			return nil, err
		}
	}

	// The handshakes run concurrently: a worker that misses the program
	// asks its connection for an upload, and when several connections reach
	// one server the singleflight build winner — the only one asked to
	// upload — may be any of them. Serial handshakes would deadlock waiting
	// on the wrong connection.
	helloTr := trace.Start(tctx, "wire.hello_exchange")
	errs := make([]error, len(conns))
	var wg sync.WaitGroup
	for i, conn := range conns {
		f.workers[i] = &worker{addr: addrs[i], i: i, alive: true}
		wg.Add(1)
		go func() {
			defer wg.Done()
			f.workers[i].conn, errs[i] = transport.Open(tctx, conn, hello, opts.IOTimeout)
		}()
	}
	wg.Wait()
	helloTr.End()
	for i, w := range f.workers {
		if errs[i] != nil {
			return nil, w.fail(errs[i])
		}
		ack := w.conn.Ack()
		if ack.NumInputs != f.prog.NumInputs() || ack.NumOutputs != f.prog.NumOutputs() {
			return nil, w.fail(errors.New("farm: worker disagrees on the io shape"))
		}
		if f.backend != "" && ack.Backend != f.backend {
			return nil, fmt.Errorf("%w: workers disagree (%q vs %q); a distributed batch needs one backend",
				transport.ErrNoCommonBackend, f.backend, ack.Backend)
		}
		f.backend = ack.Backend
	}

	// The verifier is built only now: its query state (and whether it
	// generates commitment keys at all) depends on the negotiated backend.
	cfg := hello.Config(0, opts.Seed, f.backend)
	cfg.Group, cfg.Obs = opts.Group, opts.Obs
	if f.base, err = vc.NewVerifierPre(tctx, f.prog, cfg, nil); err != nil {
		return nil, err
	}
	f.setup = f.base.SetupDuration()
	f.pool <- f.base
	for _, name := range []string{MetricShardRequeued, MetricShardStolen, MetricWorkerFailures} {
		reg.Counter(name) // scraped as 0 until the first event
	}
	reg.CounterVec(transport.MetricClientSessions, transport.LabelBackend).With(f.backend).Inc()
	reg.RegisterGauge(MetricWorkersLive, func() float64 { return float64(f.LiveWorkers()) })
	f.log = f.log.With(transport.LabelBackend, f.backend)
	f.log.InfoContext(tctx, "session negotiated", "provers", int64(len(conns)))
	return f, nil
}

// Program returns the client-side compilation of the session's program.
func (f *Farm) Program() *compiler.Program { return f.prog }

// Backend reports the proof backend every worker agreed on.
func (f *Farm) Backend() string { return f.backend }

// SetupDuration reports the dial-time verifier's setup cost (query
// construction plus commitment-key generation) — the amortized numerator
// of the batching argument.
func (f *Farm) SetupDuration() time.Duration { return f.setup }

// LiveWorkers reports how many workers are still serving.
func (f *Farm) LiveWorkers() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.live
}

// finish ends the session's spans exactly once.
func (f *Farm) finish() {
	f.sessTr.End()
	f.obsSpan.End()
}

// Close ends the session once any batch in flight has returned: every
// worker whose batches all completed gets a goodbye frame, so it logs a
// clean end rather than a hangup, and every connection is closed. Later
// batches fail with transport.ErrSessionClosed. Close is idempotent.
func (f *Farm) Close() error {
	f.runMu.Lock()
	defer f.runMu.Unlock()
	if f.closed {
		return nil
	}
	f.closed = true
	for _, w := range f.workers {
		w.conn.Close()
	}
	f.finish()
	return nil
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
		return f.base.Fork(ctx, f.nextSeed())
	}
}

// liveLegs snapshots the indices of workers still serving, in rank order.
func (f *Farm) liveLegs() []int {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]int, 0, f.live)
	for i, w := range f.workers {
		if w.alive {
			out = append(out, i)
		}
	}
	return out
}

// workerDied retires worker i: the liveness bit drops, the connection
// closes, and the failure counter ticks. Idempotent per worker.
func (f *Farm) workerDied(i int, cause error) {
	w := f.workers[i]
	f.mu.Lock()
	wasAlive := w.alive
	if wasAlive {
		w.alive = false
		f.live--
	}
	f.mu.Unlock()
	if !wasAlive {
		return
	}
	f.reg.Counter(MetricWorkerFailures).Inc()
	w.conn.Close()
	f.log.Warn("farm worker died", "worker", w.addr, "leg", i, "err", cause)
}

// isWorkerDeath classifies a shard failure: a *FarmError that is not a
// *RemoteError and not the caller's cancellation means the leg itself broke
// (connection loss, malformed frame) — the worker is gone and its shard can
// be requeued elsewhere. A RemoteError came from a live worker's prover and
// would fail identically on any worker, so it is fatal.
func isWorkerDeath(ctx context.Context, err error) (*transport.FarmError, bool) {
	var fe *transport.FarmError
	var re *transport.RemoteError
	if ctx.Err() != nil || !errors.As(err, &fe) || errors.As(err, &re) {
		return nil, false
	}
	return fe, true
}

// RunBatch proves and verifies one batch across the farm, under the
// session's trace (one transport.batch span per batch). The result is
// index-aligned with batch. On a nil error every instance was proved and
// verified (acceptance per instance is in the result); a
// *transport.FarmError (possibly wrapped) names the worker behind an
// unrecoverable failure. An empty batch fails with
// transport.ErrBatchTooLarge, a batch after Close with
// transport.ErrSessionClosed, and a cancelled one with ctx.Err(). After
// any other error the workers may be mid-protocol — close the farm rather
// than reuse it.
func (f *Farm) RunBatch(ctx context.Context, batch [][]*big.Int) (*transport.SessionResult, error) {
	f.runMu.Lock()
	defer f.runMu.Unlock()
	n := len(batch)
	switch {
	case f.closed:
		return nil, transport.ErrSessionClosed
	case n == 0:
		return nil, fmt.Errorf("%w: 0 instances", transport.ErrBatchTooLarge)
	}
	live := f.liveLegs()
	if len(live) == 0 {
		return nil, errors.New("farm: no live workers")
	}
	ctx = trace.NewContext(ctx, f.tc)
	batchTr, ctx := trace.Child(ctx, "transport.batch")
	batchTr.WithArg("batch", int64(f.batches)).WithArg("instances", int64(n))
	defer batchTr.End()
	start := time.Now()
	// One shard per live leg, contiguous, sizes within one of each other;
	// or fixed-width shards when the caller asked for them.
	shards := min(n, len(live))
	bound := func(i int) int { return i * n / shards }
	if size := f.opts.ShardSize; size > 0 {
		shards = (n + size - 1) / size
		bound = func(i int) int { return min(i*size, n) }
	}
	q := newShardQueue(len(f.workers))
	for i := range shards {
		q.tasks = append(q.tasks, &task{lo: bound(i), hi: bound(i + 1), pref: live[i%len(live)]})
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
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, err
	}
	accepted := 0
	for _, ok := range out.Accepted {
		if ok {
			accepted++
		}
	}
	out.Metrics = q.metrics
	out.Metrics.Instances = n
	f.reg.HistogramVec(vc.MetricPhase, vc.LabelPhase, vc.LabelBackend).With("batch", f.backend).Observe(time.Since(start))
	f.log.InfoContext(ctx, "batch verified", "batch", f.batches, "instances", n, "accepted", accepted)
	f.batches++
	return out, nil
}

// task is one shard: instances [lo,hi) of the batch, preferring worker
// pref, requeued retries times so far.
type task struct {
	lo, hi  int
	pref    int
	retries int
}

// shardQueue is the scheduler: one mutex/cond work queue that hands each
// worker its preferred shards first and then lets it take the rest.
type shardQueue struct {
	mu          sync.Mutex
	cond        *sync.Cond
	tasks       []*task
	started     []bool // by worker index: has taken a task this batch
	outstanding int    // tasks not yet completed
	workers     int    // worker goroutines still running
	err         error
	metrics     vc.BatchMetrics // the completed shards' Drives, merged
}

func newShardQueue(workers int) *shardQueue {
	q := &shardQueue{started: make([]bool, workers)}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// pop blocks until a task is available for leg, the queue fails, or all
// tasks complete; nil means stop. A leg takes its preferred tasks first,
// then the front-most task that is requeued or whose preferred leg has
// started — a started leg takes its own tasks first, so one still queued
// waits behind that leg's current shard. A first attempt thus stays with
// its leg until the leg has started, and a leg the scheduler runs late is
// not robbed of its only shard. stolen reports that the task preferred
// another worker.
func (q *shardQueue) pop(leg int) (t *task, stolen bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		if q.err != nil || q.outstanding == 0 {
			return nil, false
		}
		if !q.started[leg] {
			q.started[leg] = true
			q.cond.Broadcast() // this leg's backlog is now free to steal
		}
		for i, c := range q.tasks {
			if c.pref == leg {
				q.tasks = append(q.tasks[:i], q.tasks[i+1:]...)
				return c, false
			}
		}
		for i, c := range q.tasks {
			if c.retries > 0 || q.started[c.pref] {
				q.tasks = append(q.tasks[:i], q.tasks[i+1:]...)
				return c, true
			}
		}
		q.cond.Wait()
	}
}

// addShard folds one completed shard's measurements into the batch's: the
// verifier's set-up and verification work add up over shards, and each
// phase's wall, which the legs run side by side, is the slowest shard's.
func (q *shardQueue) addShard(m vc.BatchMetrics) {
	q.mu.Lock()
	defer q.mu.Unlock()
	b := &q.metrics
	b.Workers = m.Workers
	b.Setup += m.Setup
	b.VerifyTotal += m.VerifyTotal
	b.Commit = max(b.Commit, m.Commit)
	b.Decommit = max(b.Decommit, m.Decommit)
	b.Respond = max(b.Respond, m.Respond)
	b.RespondVerify = max(b.RespondVerify, m.RespondVerify)
	b.ProverWall = max(b.ProverWall, m.ProverWall)
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
		err := f.runShard(ctx, leg, t, batch, out, q)
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
		if t.retries >= f.retries() || f.LiveWorkers() == 0 {
			q.fail(fmt.Errorf("farm: shard [%d,%d) failed after %d attempts: %w", t.lo, t.hi, t.retries+1, err))
		} else {
			t.retries++
			f.reg.Counter(MetricShardRequeued).Inc()
			f.log.Info("farm shard requeued", "lo", t.lo, "hi", t.hi, "attempt", t.retries, "worker", f.workers[leg].addr)
			q.requeue(t)
		}
		q.retire(err)
		return
	}
}

// runShard drives one shard as a wire mini-batch on one leg under its own
// verifier, writing its verdicts into the shard's slice of out and its
// measurements into q.
func (f *Farm) runShard(ctx context.Context, leg int, t *task, batch [][]*big.Int, out *transport.SessionResult, q *shardQueue) error {
	sp := f.reg.StartSpan(MetricShardWall)
	defer sp.End()
	f.reg.CounterVec(MetricShards, LabelWorker).With(f.workers[leg].addr).Inc()
	v, err := f.verifier(ctx)
	if err != nil {
		return err
	}
	defer func() { f.pool <- v }()
	res, err := vc.Drive(ctx, v, f.workers[leg], batch[t.lo:t.hi], f.opts.Workers)
	if err != nil {
		return err
	}
	q.addShard(res.Metrics)
	copy(out.Accepted[t.lo:], res.Accepted)
	copy(out.Reasons[t.lo:], res.Reasons)
	copy(out.Outputs[t.lo:], res.Outputs)
	return nil
}

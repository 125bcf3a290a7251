// Package farm is the verifier's wire client: one verifier over one or
// more prover workers, each behind a handshaken transport.Conn.
//
// New compiles the program once, opens every worker's connection
// concurrently, requires the workers to agree on the backend and the io
// shape, and builds the one dial-time verifier. RunBatch then shards each
// batch across the live workers: every shard is an independent wire batch
// — its own commit request, its own query seed, its own commitment key —
// run by vc.Drive over that worker's connection. Each live worker gets one
// contiguous shard (sizes differ by at most one), so a batch costs one key
// per leg: a key is the verifier's Enc(r) plus the prover's query
// regeneration (at bench/'s bisection size 704 kB on the wire and about
// 0.42 s of verifier work), and it is the per-batch set-up the batch exists
// to amortize. A worker proves whole instances, so a finer cut would only
// add keys. A lone live worker thus gets the whole batch, so a session over
// one prover (zaatar.Dial) sends one wire batch per batch, under one key.
//
// Per-shard keys are what make the scheme sound without a global barrier:
// the workers are collectively one adversary, and each shard's seed is
// revealed only after that shard's commitments are in, exactly the
// per-batch discipline of Verifier.Reseed. Each leg owns one verifier and
// re-keys it before every shard after its first, so a requeued shard
// replays on another worker with fresh randomness, never re-exposing a seed
// whose commitments the dead worker already saw.
//
// Shard i goes to the worker ranked i in the connection order
// (zaatar.DialFarm orders workers by rendezvous hash of the program, so the
// same workers front the ranking across restarts and keep their program
// caches warm). When a worker dies mid-shard it is retired, and once the
// round's other shards are done its unfinished shards are dealt
// round-robin to the survivors for another round; with no survivor left
// the batch fails. Each round retires at least one worker or ends the
// batch, so requeueing is bounded by the live workers. The price of rounds
// is that a requeued shard waits for the round to end rather than starting
// on the first idle leg; with two workers that costs nothing, as the
// survivor had its own shard to finish first. A worker that reports a
// prover-side error is healthy, so that error is fatal rather than
// requeued.
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
	// MetricShardStolen counts requeued shards as a surviving leg runs
	// them, once per run; it reads as MetricShardRequeued unless a leg dies
	// before running a shard it was dealt.
	MetricShardStolen = "farm.shard.stolen"
	// MetricWorkerFailures counts workers retired after a leg failure.
	MetricWorkerFailures = "farm.worker.failures"
	// MetricWorkersLive gauges how many legs are still serving.
	MetricWorkersLive = "farm.workers.live"
	// MetricWorkerUp is the gauge a worker process sets to 1 while serving
	// (zaatar.ServeWorker registers it).
	MetricWorkerUp = "farm.worker.up"
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
	// Obs receives the client's vc.* and farm.* metrics; nil uses
	// obs.Default().
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

	runMu   sync.Mutex // one batch in flight at a time; Close waits for it
	closed  bool
	batches int // batches verified

	mu    sync.Mutex
	live  int
	seq   int           // re-key counter, monotone across batches and forks
	setup time.Duration // the dial-time verifier's set-up

	// verifiers holds each leg's verifier, by worker index: the
	// dial-time one at 0, the others forked on their leg's first shard.
	// Only the leg's own goroutine touches its slot.
	verifiers []*vc.Verifier
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
		live:    len(conns),
		seq:     1,
	}
	defer func() {
		if err != nil {
			sessTr.End()
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
	f.verifiers = make([]*vc.Verifier, len(conns))
	f.verifiers[0] = f.base
	for _, name := range []string{MetricShardRequeued, MetricShardStolen, MetricWorkerFailures} {
		reg.Counter(name) // scraped as 0 until the first event
	}
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
	f.sessTr.End()
	return nil
}

func (f *Farm) nextSeed() []byte {
	f.mu.Lock()
	n := f.seq
	f.seq++
	f.mu.Unlock()
	return vc.DeriveSeed(f.opts.Seed, n)
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
//
// The batch runs in rounds. Round 1 cuts it into min(n, live) contiguous
// shards, sizes within one, shard i on the i-th live leg. When a round
// ends, the shards of legs that died are dealt round-robin to the legs
// still alive and the next round runs them. Every round completes the
// batch, fails it, or retires a worker, so requeueing is bounded by the
// live workers.
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
	r := &batchRun{
		batch: batch,
		out: &transport.SessionResult{
			Accepted: make([]bool, n),
			Reasons:  make([]string, n),
			Outputs:  make([][]*big.Int, n),
		},
	}
	k := min(n, len(live))
	plan := make([][]shard, len(f.workers))
	for i := range k {
		plan[live[i]] = []shard{{lo: i * n / k, hi: (i + 1) * n / k}}
	}
	for round := 1; ; round++ {
		orphans, err := f.runRound(ctx, plan, round > 1, r)
		if err != nil {
			return nil, err
		}
		if len(orphans) == 0 {
			break
		}
		plan = make([][]shard, len(f.workers))
		live = f.liveLegs()
		for i, s := range orphans {
			leg := live[i%len(live)]
			plan[leg] = append(plan[leg], s)
			f.reg.Counter(MetricShardRequeued).Inc()
			f.log.Info("farm shard requeued", "lo", s.lo, "hi", s.hi, "round", round+1, "worker", f.workers[leg].addr)
		}
	}
	accepted := 0
	for _, ok := range r.out.Accepted {
		if ok {
			accepted++
		}
	}
	r.out.Metrics.Instances = n
	f.reg.HistogramVec(vc.MetricPhase, vc.LabelPhase, vc.LabelBackend).With("batch", f.backend).Observe(time.Since(start))
	f.log.InfoContext(ctx, "batch verified", "batch", f.batches, "instances", n, "accepted", accepted)
	f.batches++
	return r.out, nil
}

// shard is instances [lo,hi) of a batch.
type shard struct{ lo, hi int }

// batchRun is one batch's shared state: the result its shards fill in,
// their measurements merged into its Metrics under mu.
type batchRun struct {
	batch [][]*big.Int
	out   *transport.SessionResult
	mu    sync.Mutex
}

// add records one completed shard: its verdicts go into its slice of the
// result, and its measurements fold into the batch's — the verifier's
// set-up and verification work add up over shards, and each phase's wall,
// which the legs run side by side, is the slowest shard's.
func (r *batchRun) add(s shard, res *transport.SessionResult) {
	copy(r.out.Accepted[s.lo:], res.Accepted)
	copy(r.out.Reasons[s.lo:], res.Reasons)
	copy(r.out.Outputs[s.lo:], res.Outputs)
	r.mu.Lock()
	defer r.mu.Unlock()
	m, b := res.Metrics, &r.out.Metrics
	b.Workers = m.Workers
	b.Setup += m.Setup
	b.VerifyTotal += m.VerifyTotal
	b.Commit = max(b.Commit, m.Commit)
	b.Decommit = max(b.Decommit, m.Decommit)
	b.Respond = max(b.Respond, m.Respond)
	b.RespondVerify = max(b.RespondVerify, m.RespondVerify)
	b.ProverWall = max(b.ProverWall, m.ProverWall)
}

// runRound runs one round: each leg with shards in plan runs them in
// order in its own goroutine, stopping at its first error. It returns the
// shards left unfinished by legs that died, to be dealt to the survivors;
// a fatal error, a cancellation, or the loss of the last live worker ends
// the batch instead.
func (f *Farm) runRound(ctx context.Context, plan [][]shard, requeued bool, r *batchRun) ([]shard, error) {
	rest := make([][]shard, len(plan))
	errs := make([]error, len(plan))
	var wg sync.WaitGroup
	for leg, shards := range plan {
		if len(shards) == 0 {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, s := range shards {
				if requeued {
					f.reg.Counter(MetricShardStolen).Inc()
				}
				if errs[leg] = f.runShard(ctx, leg, s, r); errs[leg] != nil {
					rest[leg] = shards[i:]
					return
				}
			}
		}()
	}
	wg.Wait()
	var orphans []shard
	var fatal, death error
	for leg, err := range errs {
		if err == nil {
			continue
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if fe, ok := isWorkerDeath(ctx, err); ok {
			f.workerDied(leg, fe.Err)
			orphans = append(orphans, rest[leg]...)
			death = err
		} else if fatal == nil {
			fatal = err
		}
	}
	switch {
	case fatal != nil:
		return nil, fatal
	case death != nil && f.LiveWorkers() == 0:
		return nil, fmt.Errorf("farm: no live worker left to requeue onto: %w", death)
	}
	return orphans, nil
}

// runShard drives one shard as a wire mini-batch on one leg under the
// leg's verifier, writing its verdicts and measurements into r.
func (f *Farm) runShard(ctx context.Context, leg int, s shard, r *batchRun) error {
	f.reg.CounterVec(MetricShards, LabelWorker).With(f.workers[leg].addr).Inc()
	v, err := f.verifier(ctx, leg)
	if err != nil {
		return err
	}
	res, err := vc.Drive(ctx, v, f.workers[leg], r.batch[s.lo:s.hi], f.opts.Workers)
	if err != nil {
		return err
	}
	r.add(s, res)
	return nil
}

// verifier readies leg's verifier for a new shard. Leg 0 owns the
// dial-time verifier; any other leg forks its own from it on its first
// shard, so the dial pays for one verifier only. A verifier whose key is
// spent is re-keyed, so every shard commits under a key no other shard —
// and no worker that died — was sent.
func (f *Farm) verifier(ctx context.Context, leg int) (v *vc.Verifier, err error) {
	switch v = f.verifiers[leg]; {
	case v == nil:
		v, err = f.base.Fork(ctx, f.nextSeed())
		f.verifiers[leg] = v
	case v.Spent():
		err = v.Reseed(ctx, f.nextSeed())
	}
	return v, err
}

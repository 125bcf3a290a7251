package main

import (
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"net"
	"runtime"
	"slices"
	"sync"
	"time"

	"zaatar"
	"zaatar/internal/obs"
)

// size is how much work one run does. The production size is what
// BENCHMARK.json measures; bench_test.go runs a reduced one.
type size struct {
	RhoLin, Rho int
	Beta        int           // 0 keeps the workload's own β
	Measure     time.Duration // the timed loop runs at least this long …
	MinBatches  int           // … and at least this many batches
	Setups      int           // cold set-ups of a wire workload; setup_s is their median
	Traced      int           // batches per kind in the traced pass
	Reps        int           // calls of each kernel in the traced pass; their median is reported
}

var production = size{RhoLin: 20, Rho: 8, MinBatches: 5, Setups: 3, Traced: 3, Reps: 3}

// env is one workload ready to run: its program text, options and input
// stream. The seed reaches only the input generator.
type env struct {
	w     *workload
	src   string
	size  size
	beta  int
	copts []zaatar.CompileOption
	ropts []zaatar.RunOption
	rng   *rand.Rand
}

func newEnv(w *workload, seed int64, sz size) (*env, error) {
	src, err := w.source()
	if err != nil {
		return nil, err
	}
	e := &env{w: w, src: src, size: sz, beta: w.Beta, rng: rand.New(rand.NewSource(seed))}
	if sz.Beta > 0 {
		e.beta = sz.Beta
	}
	// Commitment stays on with the production group of the program's field;
	// one prover worker and one verifier worker.
	e.ropts = []zaatar.RunOption{
		zaatar.WithBackend(w.Backend),
		zaatar.WithParams(sz.RhoLin, sz.Rho),
		zaatar.WithWorkers(1),
	}
	if w.F220 {
		e.copts = append(e.copts, zaatar.WithField220())
		e.ropts = append(e.ropts, zaatar.WithField220())
	}
	return e, nil
}

func (e *env) nextBatch() [][]*big.Int {
	batch := make([][]*big.Int, e.beta)
	for i := range batch {
		batch[i] = e.w.Gen(e.rng)
	}
	return batch
}

// tally counts instances against the native reference.
type tally struct {
	attempted, failed int
}

// check counts one batch: an instance fails if it was not accepted, if its
// output differs from the native reference, or if its batch returned an
// error (accepted and outputs are then nil).
func (t *tally) check(w *workload, batch [][]*big.Int, accepted []bool, outputs [][]*big.Int) {
	for i, in := range batch {
		t.attempted++
		if i >= len(accepted) || !accepted[i] || i >= len(outputs) || !equalOutputs(outputs[i], w.Ref(in)) {
			t.failed++
		}
	}
}

func equalOutputs(got []*big.Int, want []int64) bool {
	if len(got) != len(want) {
		return false
	}
	for i, g := range got {
		if g == nil || !g.IsInt64() || g.Int64() != want[i] {
			return false
		}
	}
	return true
}

// runner proves and verifies one batch the way the workload's users would.
type runner func(ctx context.Context, batch [][]*big.Int) (accepted []bool, outputs [][]*big.Int, err error)

// setupLocal is one cold in-process set-up: compile the program and build a
// prover (preprocessing included), after which a batch can be submitted.
func (e *env) setupLocal() (*zaatar.Program, time.Duration, error) {
	start := time.Now()
	prog, err := zaatar.Compile(e.src, e.copts...)
	if err != nil {
		return nil, 0, err
	}
	if _, err := zaatar.NewProver(prog, e.ropts...); err != nil {
		return nil, 0, err
	}
	return prog, time.Since(start), nil
}

func (e *env) localRunner(prog *zaatar.Program) runner {
	return func(ctx context.Context, batch [][]*big.Int) ([]bool, [][]*big.Int, error) {
		res, err := zaatar.RunContext(ctx, prog, batch, e.ropts...)
		if err != nil {
			return nil, nil, err
		}
		return res.Accepted, res.Outputs, nil
	}
}

// wire is an open client with the fresh server or workers behind it.
type wire struct {
	client  *zaatar.Client
	counter *wireCounter
	reg     *obs.Registry // the client side's metrics: the farm's counters land here
	opened  time.Duration // from nothing to Dial or DialFarm returning
	stop    func() error  // closes the client, stops the servers and waits for them; safe to call twice
}

func (w *wire) run(ctx context.Context, batch [][]*big.Int) ([]bool, [][]*big.Int, error) {
	res, err := w.client.RunBatch(ctx, batch)
	if err != nil {
		return nil, nil, err
	}
	return res.Accepted, res.Outputs, nil
}

// openWire is one cold wire set-up: fresh server processes' worth of state
// (a new service with an empty program cache per listener), then the dial,
// which returns once both ends have compiled and the first verifier key and
// queries exist.
func (e *env) openWire(ctx context.Context, m mode) (*wire, error) {
	start := time.Now()
	w := &wire{counter: &wireCounter{}, reg: obs.NewRegistry()}
	sctx, cancel := context.WithCancel(ctx)
	servers := 1
	serve := zaatar.Serve
	if m == farm2 {
		servers, serve = 2, zaatar.ServeWorker
	}
	done := make(chan error, servers)
	var addrs []string
	for i := 0; i < servers; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			cancel()
			for range addrs {
				<-done
			}
			return nil, err
		}
		addrs = append(addrs, ln.Addr().String())
		go func() {
			done <- serve(sctx, countingListener{ln, w.counter},
				zaatar.WithServerWorkers(1), zaatar.WithServerMetrics(obs.NewRegistry()))
		}()
	}
	var stopped sync.Once
	var stopErr error
	stopServers := func() error {
		stopped.Do(func() {
			cancel()
			for range addrs {
				if err := <-done; err != nil && !errors.Is(err, context.Canceled) && stopErr == nil {
					stopErr = err
				}
			}
		})
		return stopErr
	}
	opts := append([]zaatar.RunOption{zaatar.WithMetrics(w.reg)}, e.ropts...)
	var err error
	if m == farm2 {
		w.client, err = zaatar.DialFarm(sctx, addrs, e.src, opts...)
	} else {
		w.client, err = zaatar.Dial(sctx, addrs[0], e.src, opts...)
	}
	if err != nil {
		_ = stopServers()
		return nil, err
	}
	w.opened = time.Since(start)
	w.stop = func() error {
		cerr := w.client.Close()
		if err := stopServers(); err != nil {
			return err
		}
		return cerr
	}
	return w, nil
}

// handBatch is one batch driven by hand through the public phase API: the
// messages it exchanged and what it took.
type handBatch struct {
	verifier    *zaatar.Verifier
	req         *zaatar.CommitRequest
	commitments []*zaatar.Commitment
	states      []*zaatar.InstanceState
	decommit    *zaatar.DecommitRequest
	responses   []*zaatar.Response
	accepted    []bool
	outputs     [][]*big.Int
	took        time.Duration
}

// drive runs one batch phase by phase in the order and shape of
// vc.RunBatch with one worker — verifier and prover built inside the batch,
// commitments one after another, then the prover's answers streaming into
// the verifier's checks on a second goroutine — with a span around every
// call. rec may be nil.
func (e *env) drive(ctx context.Context, prog *zaatar.Program, batch [][]*big.Int, rec *recorder) (*handBatch, error) {
	n := len(batch)
	hb := &handBatch{
		commitments: make([]*zaatar.Commitment, n),
		states:      make([]*zaatar.InstanceState, n),
		responses:   make([]*zaatar.Response, n),
		accepted:    make([]bool, n),
		outputs:     make([][]*big.Int, n),
	}
	start := time.Now()
	root := rec.root("batch")
	defer root.end()

	sp := root.child("vc.setup") // zaatar.NewVerifier does the query and key set-up; Setup only hands it over
	v, err := zaatar.NewVerifier(prog, e.ropts...)
	if err != nil {
		return nil, err
	}
	hb.verifier, hb.req = v, v.Setup()
	sp.end()

	sp = root.child("vc.preprocess")
	p, err := zaatar.NewProver(prog, e.ropts...)
	sp.end()
	if err != nil {
		return nil, err
	}

	sp = root.child("vc.handle_commit_request")
	err = p.HandleCommitRequest(hb.req)
	sp.end()
	if err != nil {
		return nil, err
	}

	phase := root.child("vc.commit")
	for i, in := range batch {
		sp = phase.child("prover.commit")
		hb.commitments[i], hb.states[i], err = p.Commit(ctx, in)
		sp.end()
		if err != nil {
			return nil, fmt.Errorf("instance %d: %w", i, err)
		}
		hb.outputs[i] = hb.commitments[i].Output
	}
	phase.end()

	phase = root.child("vc.decommit")
	sp = phase.child("verifier.decommit")
	hb.decommit, err = v.Decommit()
	sp.end()
	if err != nil {
		return nil, err
	}
	sp = phase.child("prover.handle_decommit")
	err = p.HandleDecommit(hb.decommit)
	sp.end()
	phase.end()
	if err != nil {
		return nil, err
	}

	ready := make(chan int, 2) // vc.RunBatch buffers 2 × workers
	verified := make(chan struct{})
	go func() {
		defer close(verified)
		for i := range ready {
			vs := root.fork("vc.verify")
			hb.accepted[i], _ = v.VerifyInstance(ctx, batch[i], hb.commitments[i], hb.responses[i])
			vs.end()
		}
	}()
	phase = root.child("vc.respond")
	for i := range batch {
		sp = phase.child("prover.respond")
		hb.responses[i], err = p.Respond(ctx, hb.states[i])
		sp.end()
		if err != nil {
			err = fmt.Errorf("instance %d: %w", i, err)
			break
		}
		ready <- i
	}
	phase.end()
	close(ready)
	<-verified
	if err != nil {
		return nil, err
	}
	hb.took = time.Since(start)
	return hb, nil
}

// messageBytes is what the batch's four protocol messages weigh in the gob
// encoding the transport uses, inputs included: the in-process workloads'
// form of wire_bytes_per_instance.
func (hb *handBatch) messageBytes(batch [][]*big.Int) (int64, error) {
	var n byteCounter
	enc := gob.NewEncoder(&n)
	for _, msg := range []any{hb.req, batch, hb.commitments, hb.decommit, hb.responses} {
		if err := enc.Encode(msg); err != nil {
			return 0, err
		}
	}
	return int64(n), nil
}

// canary alters instance 0's claimed output in a copy of its commitment and
// requires the verifier to reject it against the honest responses.
func (hb *handBatch) canary(ctx context.Context, batch [][]*big.Int) error {
	forged := *hb.commitments[0]
	forged.Output = append([]*big.Int(nil), forged.Output...)
	forged.Output[0] = new(big.Int).Add(forged.Output[0], big.NewInt(1))
	if ok, _ := hb.verifier.VerifyInstance(ctx, batch[0], &forged, hb.responses[0]); ok {
		return errors.New("soundness canary: the verifier accepted an altered output")
	}
	return nil
}

// result is what one run reports on its last line.
type result struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   values
	notes     []string // printed as "# …" lines; not metrics
}

// measure is the untraced pass: cold set-ups, one untimed warm-up batch,
// then the timed closed loop with one client.
func (e *env) measure(ctx context.Context) (*result, error) {
	var (
		run         runner
		setups      []float64
		wireBytes   func() int64 // running total of bytes on the wire; nil in process
		perInstance float64      // wire_bytes_per_instance
		warm        tally
		canaryNote  = "soundness canary runs on the in-process workloads only"
	)
	if e.w.Mode == local {
		// An in-process set-up is some thirty times cheaper than a wire one
		// and as much noisier, so it is repeated three times as often.
		var prog *zaatar.Program
		for i := 0; i < 3*e.size.Setups; i++ {
			p, took, err := e.setupLocal()
			if err != nil {
				return nil, err
			}
			prog = p
			setups = append(setups, took.Seconds())
		}
		run = e.localRunner(prog)
		// The warm-up batch is driven by hand: it fills the same caches,
		// yields the messages to weigh, and carries the soundness canary.
		batch := e.nextBatch()
		hb, err := e.drive(ctx, prog, batch, nil)
		if err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		warm.check(e.w, batch, hb.accepted, hb.outputs)
		if err := hb.canary(ctx, batch); err != nil {
			return nil, err
		}
		canaryNote = "soundness canary rejected"
		total, err := hb.messageBytes(batch)
		if err != nil {
			return nil, err
		}
		perInstance = float64(total) / float64(len(batch))
	} else {
		var w *wire
		for i := 0; i < e.size.Setups; i++ {
			if w != nil {
				if err := w.stop(); err != nil {
					return nil, err
				}
			}
			var err error
			if w, err = e.openWire(ctx, e.w.Mode); err != nil {
				return nil, err
			}
			setups = append(setups, w.opened.Seconds())
		}
		defer w.stop()
		run, wireBytes = w.run, w.counter.total
		batch := e.nextBatch()
		accepted, outputs, err := run(ctx, batch)
		if err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		warm.check(e.w, batch, accepted, outputs)
	}
	if warm.failed > 0 {
		return nil, fmt.Errorf("warm-up: %d of %d instances rejected or wrong", warm.failed, warm.attempted)
	}

	var timed tally
	var batches []float64
	var before int64
	if wireBytes != nil {
		before = wireBytes()
	}
	loop := time.Now()
	for len(batches) < e.size.MinBatches || time.Since(loop) < e.size.Measure {
		batch := e.nextBatch()
		// The client of a closed loop idles between batches. Collecting
		// there, outside the timed call, starts every batch from the same
		// heap, which is what makes batch_s and above all peak_rss_mb
		// repeat: the peak is then one batch's, not one batch's plus
		// however much of the previous batch's garbage was still around.
		runtime.GC()
		start := time.Now()
		accepted, outputs, err := run(ctx, batch)
		batches = append(batches, time.Since(start).Seconds())
		timed.check(e.w, batch, accepted, outputs)
		if err != nil {
			// The session may be dead; stop here with the failures counted.
			return &result{Attempted: timed.attempted, Failed: timed.failed,
				notes: []string{"batch error: " + err.Error()}}, nil
		}
	}
	if wireBytes != nil {
		perInstance = float64(wireBytes()-before) / float64(timed.attempted)
	}

	batchS := median(batches)
	return &result{
		Correct:   timed.failed == 0,
		Attempted: timed.attempted,
		Failed:    timed.failed,
		Metrics: values{
			"batch_s":                 batchS,
			"setup_s":                 median(setups),
			"wire_bytes_per_instance": perInstance,
			"peak_rss_mb":             peakRSSMiB(),
		},
		notes: []string{
			fmt.Sprintf("batch_s n=%d min=%.4f max=%.4f all=%.3f", len(batches), slices.Min(batches), slices.Max(batches), batches),
			fmt.Sprintf("instances_per_s %.4f (beta=%d / batch_s)", float64(e.beta)/batchS, e.beta),
			fmt.Sprintf("failed_share %g (%d of %d instances)",
				float64(timed.failed)/float64(timed.attempted), timed.failed, timed.attempted),
			canaryNote,
		},
	}, nil
}

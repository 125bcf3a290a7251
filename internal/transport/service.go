package transport

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"zaatar/internal/obs"
	"zaatar/internal/obs/trace"
	"zaatar/internal/pcp"
	"zaatar/internal/vc"
)

// ServiceOptions configures a long-lived multi-tenant prover Service.
type ServiceOptions struct {
	// Workers is the service-wide kernel pool: the total parallelism shared
	// by every admitted session. Each session gets Workers divided by the
	// number of currently admitted sessions (at least 1), so N concurrent
	// clients share the machine instead of each oversubscribing it.
	// Defaults to runtime.NumCPU().
	Workers int
	// MaxSessions bounds how many sessions may compute concurrently; the
	// rest wait in admission (recorded in transport.admission.wait). A
	// keep-alive connection holds its slot only while a batch is in flight,
	// not while idle between batches. Defaults to 16.
	MaxSessions int
	// MaxBatch bounds the number of instances a client may submit per
	// batch. Defaults to 1<<16.
	MaxBatch int
	// MaxConns bounds how many connections Serve keeps open at once —
	// including idle keep-alive connections, which hold no admission slot
	// but still pin a goroutine and their compiled program. Connections
	// beyond the cap are refused at accept (counted in
	// transport.conns.rejected). Defaults to 16×MaxSessions; negative
	// means unlimited.
	MaxConns int
	// IOTimeout, when positive, is the per-message read/write deadline on
	// every connection.
	IOTimeout time.Duration
	// IdleTimeout bounds how long a kept-alive connection may sit idle
	// between batches before the server reaps it (a clean end, counted in
	// transport.idle.closed — not a session error). It applies even when
	// IOTimeout is zero, so idle connections cannot accumulate forever.
	// Defaults to 2 minutes; negative disables the bound.
	IdleTimeout time.Duration
	// CacheSize is the number of compiled programs kept in the LRU shared
	// across sessions. Defaults to 32.
	CacheSize int
	// MaxSourceBytes bounds the program source a client may send (in the
	// hello or a source upload). Zero means DefaultMaxSourceBytes.
	MaxSourceBytes int
	// Backends restricts the proof backends this service negotiates, in no
	// particular order (the client's preference order decides ties). Nil
	// means every backend registered in internal/pcp. Tests use this to
	// simulate a build without a given backend.
	Backends []string
	// Obs receives the service's counters and spans; nil uses
	// obs.Default().
	Obs *obs.Registry
	// Logger receives structured records: per session (start/end, batches
	// served, failures), each carrying session/backend/program_hash
	// attributes plus trace correlation when the client sent a trace, and
	// per service (connections refused at MaxConns).
	// Nil disables logging.
	Logger *slog.Logger
}

// Service is a long-lived multi-tenant prover: it owns a cross-session LRU
// of compiled programs (so repeat sessions for the same Ψ skip compilation
// and QAP preprocessing) and a bounded admission semaphore (so concurrent
// sessions share the kernel pool fairly). It speaks wire protocol v3 —
// hash-first hellos, then multiple batches per connection, reusing the
// negotiated program while each batch brings its own commit request.
type Service struct {
	workers     int
	maxSessions int
	maxBatch    int
	maxConns    int
	maxSource   int
	ioTimeout   time.Duration
	idleTimeout time.Duration
	backends    []string
	log         *slog.Logger

	reg     *obs.Registry
	sem     chan struct{}
	active  atomic.Int64
	conns   atomic.Int64
	sessSeq atomic.Int64

	// The per-tenant counters, each recorded only under its labels.
	sessionsVec  *obs.CounterVec
	batchesVec   *obs.CounterVec
	instancesVec *obs.CounterVec
	skippedVec   *obs.CounterVec

	mu    sync.Mutex
	cache *programCache
}

// NewService builds a Service; zero option fields take the documented
// defaults.
func NewService(opts ServiceOptions) *Service {
	reg := opts.Obs
	if reg == nil {
		reg = obs.Default()
	}
	workers := opts.Workers
	if workers < 1 {
		workers = runtime.NumCPU()
	}
	maxSessions := opts.MaxSessions
	if maxSessions < 1 {
		maxSessions = 16
	}
	maxBatch := opts.MaxBatch
	if maxBatch < 1 {
		maxBatch = 1 << 16
	}
	maxConns := opts.MaxConns
	switch {
	case maxConns == 0:
		maxConns = 16 * maxSessions
	case maxConns < 0:
		maxConns = 0 // unlimited
	}
	idle := opts.IdleTimeout
	switch {
	case idle == 0:
		idle = 2 * time.Minute
	case idle < 0:
		idle = 0 // unbounded
	}
	cacheSize := opts.CacheSize
	if cacheSize < 1 {
		cacheSize = 32
	}
	backends := opts.Backends
	if backends == nil {
		backends = pcp.Names()
	}
	maxSource := opts.MaxSourceBytes
	if maxSource <= 0 {
		maxSource = DefaultMaxSourceBytes
	}
	s := &Service{
		workers:      workers,
		maxSessions:  maxSessions,
		maxBatch:     maxBatch,
		maxConns:     maxConns,
		maxSource:    maxSource,
		ioTimeout:    opts.IOTimeout,
		idleTimeout:  idle,
		backends:     backends,
		log:          obs.OrNop(opts.Logger),
		reg:          reg,
		sem:          make(chan struct{}, maxSessions),
		sessionsVec:  reg.CounterVec(MetricSessions, LabelBackend),
		batchesVec:   reg.CounterVec(MetricServedBatches, LabelBackend, LabelProgramHash),
		instancesVec: reg.CounterVec(MetricServedInstance, LabelBackend, LabelProgramHash),
		skippedVec:   reg.CounterVec(MetricHelloSourceSkipped, LabelProgramHash),
		cache:        newProgramCache(cacheSize, reg),
	}
	reg.RegisterGauge(MetricConnsOpen, func() float64 { return float64(s.conns.Load()) })
	reg.RegisterGauge(MetricAdmissionActive, func() float64 { return float64(s.active.Load()) })
	reg.RegisterGauge(MetricCacheEntries, func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(s.cache.order.Len())
	})
	return s
}

// Serve accepts connections on ln and serves each in its own goroutine
// until ctx is cancelled or the listener is closed, then waits for the
// in-flight sessions to drain. Connections beyond MaxConns — open ones,
// computing or idle — are refused at accept. Refusals and per-session
// failures are logged to ServiceOptions.Logger, not returned.
func (s *Service) Serve(ctx context.Context, ln net.Listener) error {
	defer context.AfterFunc(ctx, func() { _ = ln.Close() })()
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if ctx.Err() != nil || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		if n := s.conns.Add(1); s.maxConns > 0 && n > int64(s.maxConns) {
			s.conns.Add(-1)
			s.reg.Counter(MetricConnsRejected).Inc()
			s.log.Warn("connection refused", "remote", fmt.Sprint(conn.RemoteAddr()), "max_conns", s.maxConns)
			_ = conn.Close()
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer s.conns.Add(-1)
			_ = s.ServeConn(ctx, conn) // ServeConn logs its own failure
		}()
	}
}

// admit blocks until a service-wide session slot is free (or ctx is
// cancelled) and returns the per-session worker count: the kernel pool
// divided by the sessions now computing.
func (s *Service) admit(ctx context.Context) (int, error) {
	span := s.reg.StartSpan(MetricAdmissionWait)
	tr := trace.Start(ctx, "transport.admission_wait")
	select {
	case s.sem <- struct{}{}:
	case <-ctx.Done():
		tr.End()
		span.End()
		return 0, ctx.Err()
	}
	tr.End()
	span.End()
	active := int(s.active.Add(1))
	w := s.workers / active
	if w < 1 {
		w = 1
	}
	return w, nil
}

func (s *Service) releaseSlot() {
	s.active.Add(-1)
	<-s.sem
}

// errUploadFailed is what a singleflight entry's waiters see when its
// winner's own client failed to upload the source (hangup, stall, or a
// source that does not match the hash). That failure belongs to the
// uploader alone: each waiter looks the key up again, and the new winner
// asks its own client for the source.
var errUploadFailed = errors.New("transport: the singleflight uploader's source upload failed")

// program resolves the session's compiled program and prover precomputation
// through the in-memory LRU, compiling on a miss. Exactly one session per
// key runs the miss path — concurrent sessions wait on the same entry, so
// the compile is collapsed by the singleflight entry. A hash-first hello
// whose program the cache misses triggers the SourceNeeded exchange on cc,
// filling hello.Source before compiling. The prover.compile trace span
// exists only on the compile path, which is how a cache hit is observed.
func (s *Service) program(ctx context.Context, cc *timedCodec, hello *Hello, key cacheKey, backend string) (*cacheEntry, error) {
	for {
		s.mu.Lock()
		entry, build := s.cache.lookup(key)
		s.mu.Unlock()
		var err error
		if build {
			err = s.buildEntry(ctx, cc, hello, key, backend, entry)
		} else {
			err = entry.await(ctx)
		}
		switch {
		case errors.Is(err, errUploadFailed):
			continue
		case err != nil:
			return nil, err
		}
		return entry, nil
	}
}

// buildEntry runs the miss path for one cache entry: it asks a hash-first
// client for the source if needed, then compiles. Only a compile or
// preprocess error is shared with the entry's waiters; a failed upload is
// returned to this session alone and wakes the waiters with
// errUploadFailed.
func (s *Service) buildEntry(ctx context.Context, cc *timedCodec, hello *Hello, key cacheKey, backend string, entry *cacheEntry) error {
	if hello.Source == "" {
		src, err := s.requestSource(cc, key)
		if err != nil {
			s.settle(key, entry, errUploadFailed)
			return err
		}
		hello.Source = src
	}
	err := entry.build(ctx, *hello, backend)
	s.settle(key, entry, err)
	return err
}

// settle resolves an entry and wakes its waiters. A failed entry leaves the
// cache first, so a waiter that looks the key up again builds afresh
// instead of finding the dead entry.
func (s *Service) settle(key cacheKey, entry *cacheEntry, err error) {
	if err != nil {
		s.mu.Lock()
		s.cache.drop(key, entry)
		s.mu.Unlock()
	}
	entry.err = err
	close(entry.ready)
}

// requestSource runs the SourceNeeded exchange: an interim ack asking the
// client to upload, then the SourceMsg, verified against the size limit and
// the hash the hello claimed.
func (s *Service) requestSource(cc *timedCodec, key cacheKey) (string, error) {
	if err := cc.send(HelloAck{SourceNeeded: true, Version: MaxProtocolVersion}); err != nil {
		return "", err
	}
	var src SourceMsg
	if err := cc.recv(&src); err != nil {
		return "", fmt.Errorf("transport: reading source upload: %w", err)
	}
	switch {
	case strings.TrimSpace(src.Source) == "":
		return "", fmt.Errorf("%w: empty source upload", ErrMalformedHello)
	case len(src.Source) > s.maxSource:
		return "", fmt.Errorf("%w: source is %d bytes (max %d)", ErrSourceTooLarge, len(src.Source), s.maxSource)
	case sha256.Sum256([]byte(src.Source)) != key.source:
		return "", fmt.Errorf("%w: uploaded source does not match the hello hash", ErrMalformedHello)
	}
	return src.Source, nil
}

// cleanHangup reports a peer hangup at a message boundary — gob sees a bare
// io.EOF only between frames — which after at least one completed batch is
// the clean end of a keep-alive session. A peer dying mid-frame surfaces
// as io.ErrUnexpectedEOF (or a reset) and stays a session error: that peer
// believed it was mid-protocol.
func cleanHangup(err error) bool {
	return errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF)
}

// idleExpired reports a read deadline hit while waiting for the next batch.
func idleExpired(err error) bool {
	var ne net.Error
	return errors.Is(err, os.ErrDeadlineExceeded) || (errors.As(err, &ne) && ne.Timeout())
}

// ServeConn handles one verifier connection: check the hello, resolve the
// program through the cache, then serve batches until a Close frame or a
// hangup. The admission slot is held only while a batch — or the initial
// compile — is in flight; an idle keep-alive connection does not count
// against MaxSessions.
func (s *Service) ServeConn(ctx context.Context, conn net.Conn) (err error) {
	defer conn.Close()
	defer watch(ctx, conn)()
	logger := s.log.With("session", s.sessSeq.Add(1), "remote", fmt.Sprint(conn.RemoteAddr()))
	span := s.reg.StartSpan(MetricSpanSession)
	defer func() {
		span.End()
		err = ctxErr(ctx, err)
		if err != nil {
			s.reg.Counter(MetricSessionErrors).Inc()
			logger.ErrorContext(ctx, "session failed", "err", err.Error())
		} else {
			logger.InfoContext(ctx, "session closed")
		}
	}()
	cc := newTimedCodec(conn, s.ioTimeout)

	// refuse answers the hello with an error ack.
	refuse := func(err error) error {
		_ = cc.send(HelloAck{Err: err.Error(), Version: MaxProtocolVersion})
		return err
	}
	var hello Hello
	if err := cc.recv(&hello); err != nil {
		return fmt.Errorf("transport: reading hello: %w", err)
	}
	if err := hello.validate(s.maxSource); err != nil {
		return refuse(err)
	}
	hashFirst := hello.hashFirst()

	// Resolve the session's proof backend once; the cache key, the
	// prover's configuration, and the ack all use this single value.
	backend, err := negotiateBackend(hello.Backends, s.backends)
	if err != nil {
		return refuse(err)
	}

	// Join the verifier's trace, if it sent one, recording into a
	// per-session ring; completed spans ship back with every ResponsesMsg.
	// With a zero Trace (tracing off) tc is nil and every span below is a
	// free no-op.
	var tc *trace.Ctx
	if hello.Trace != 0 {
		tc = trace.Join(trace.NewRecorder(trace.DefaultCapacity), hello.Trace, hello.TraceParent, "prover")
	}
	sessTr := tc.Start("transport.serve")
	sessEnded := false
	defer sessTr.End()
	ctx = trace.NewContext(ctx, sessTr.Ctx())

	// Admission covers the compile and the first batch; between later
	// batches the slot is released so idle connections don't starve others.
	workers, err := s.admit(ctx)
	if err != nil {
		return err
	}
	admitted := true
	defer func() {
		if admitted {
			s.releaseSlot()
		}
	}()

	key := keyOf(hello, backend)
	entry, err := s.program(ctx, cc, &hello, key, backend)
	if err != nil {
		return refuse(err)
	}
	prog := entry.prog
	prover, err := vc.NewProverPre(prog, hello.Config(workers, nil, backend), entry.pre)
	if err != nil {
		return refuse(err)
	}
	if hashFirst && hello.Source == "" {
		// The session opened without the source ever crossing the wire:
		// the cache knew the program (or another session's singleflight
		// build supplied it).
		s.skippedVec.With(key.labelHash()).Inc()
		s.reg.Counter(MetricHelloBytesSaved).Add(int64(len(prog.Source)))
	}
	phash := key.labelHash()
	s.sessionsVec.With(backend).Inc()
	logger = logger.With(LabelBackend, backend, LabelProgramHash, phash)
	logger.InfoContext(ctx, "session negotiated", "workers", workers)
	ack := HelloAck{NumInputs: prog.NumInputs(), NumOutputs: prog.NumOutputs(), Version: MaxProtocolVersion, Backend: backend}
	if err := cc.send(ack); err != nil {
		return err
	}

	// shipped indexes into the trace ring: each ResponsesMsg carries only
	// the records completed since the previous one, so the verifier never
	// imports a span twice. The serve span is closed before the first
	// snapshot — unfinished spans are never recorded, and the verifier
	// imports exactly what ships; later batches' spans still join the trace
	// under its (completed) span ID.
	shipped := 0
	ship := func() []trace.Record {
		if !sessEnded {
			sessTr.End()
			sessEnded = true
		}
		if tc == nil {
			return nil
		}
		recs := tc.Recorder().Snapshot()
		if shipped > len(recs) {
			shipped = len(recs) // ring dropped older records
		}
		out := recs[shipped:]
		shipped = len(recs)
		return out
	}

	// Waits for the next batch are bounded by the idle timeout (stretched to
	// IOTimeout when that is longer): an idle keep-alive connection holds no
	// admission slot but still pins a goroutine and its program, so with no
	// bound a public service could be drained by parked connections.
	idle := s.idleTimeout
	if s.ioTimeout > idle && idle > 0 {
		idle = s.ioTimeout
	}
	for batches := 0; ; batches++ {
		var batch BatchMsg
		if err := cc.recvTimeout(&batch, idle); err != nil {
			if ctx.Err() == nil {
				if idle > 0 && idleExpired(err) {
					s.reg.Counter(MetricIdleClosed).Inc()
					return nil // idle connection reaped: clean end, not an error
				}
				if batches > 0 && cleanHangup(err) {
					return nil // keep-alive peer hung up between batches
				}
			}
			return fmt.Errorf("transport: reading batch: %w", err)
		}
		if batch.Close {
			return nil
		}
		if !admitted {
			if workers, err = s.admit(ctx); err != nil {
				return err
			}
			admitted = true
		}
		t0 := time.Now()
		n, err := s.serveBatch(ctx, cc, prover, batch, batches, workers, ship)
		if err != nil {
			return err
		}
		dur := time.Since(t0)
		s.batchesVec.With(backend, phash).Inc()
		s.instancesVec.With(backend, phash).Add(int64(n))
		logger.InfoContext(ctx, "batch served", "batch", batches, "instances", n, "dur_ms", dur.Milliseconds())
		s.releaseSlot()
		admitted = false
	}
}

// serveBatch runs the commit → decommit → respond exchange for one batch
// through the prover's batch routines and returns the number of instances
// served. ship is called immediately before the final ResponsesMsg to
// collect the trace records to attach.
func (s *Service) serveBatch(ctx context.Context, cc *timedCodec, prover *vc.Prover, batch BatchMsg, batchIdx, workers int, ship func() []trace.Record) (int, error) {
	batchTr, ctx := trace.Child(ctx, "transport.batch")
	batchTr.WithArg("batch", int64(batchIdx))
	defer batchTr.End()
	n := len(batch.Instances)
	if n == 0 || n > s.maxBatch {
		err := fmt.Errorf("%w: %d not in [1, %d]", ErrBatchTooLarge, n, s.maxBatch)
		_ = cc.send(CommitmentsMsg{Err: err.Error()})
		return 0, err
	}
	if batch.Req == nil {
		// The key is per-batch: a batch without its own request would reuse
		// the previous batch's r, which its decommit already exposed.
		err := fmt.Errorf("transport: batch %d carries no commit request", batchIdx)
		_ = cc.send(CommitmentsMsg{Err: err.Error()})
		return 0, err
	}
	// The request was gob-decoded from the peer: CommitBatch rejects
	// malformed group parameters or ciphertexts as a protocol error the
	// client sees, rather than panicking inside the commitment kernels.
	cms, states, err := prover.CommitBatch(ctx, batch.Req, batch.Instances, workers)
	if err != nil {
		_ = cc.send(CommitmentsMsg{Err: err.Error()})
		return 0, err
	}
	if err := cc.send(CommitmentsMsg{Items: cms}); err != nil {
		return 0, err
	}

	// The wait for the decommit is the verifier's barrier plus one
	// round-trip; it shows up as its own span so wire stalls are visible.
	awaitTr := trace.Start(ctx, "wire.await_decommit")
	var decommit DecommitMsg
	err = cc.recv(&decommit)
	awaitTr.End()
	if err != nil {
		return 0, fmt.Errorf("transport: reading decommit: %w", err)
	}
	resp := ResponsesMsg{Items: make([]*vc.Response, n)}
	if err := prover.RespondBatch(ctx, decommit.Req, states, workers, func(i int, r *vc.Response) {
		resp.Items[i] = r
	}); err != nil {
		_ = cc.send(ResponsesMsg{Err: err.Error()})
		return 0, err
	}
	batchTr.End()
	resp.Trace = ship()
	return n, cc.send(resp)
}

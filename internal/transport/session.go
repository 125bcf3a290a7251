package transport

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"log/slog"
	"math/big"
	"net"
	"strings"
	"sync"
	"time"

	"zaatar/internal/compiler"
	"zaatar/internal/elgamal"
	"zaatar/internal/obs"
	"zaatar/internal/obs/trace"
	"zaatar/internal/pcp"
	"zaatar/internal/vc"
)

// ClientOptions configures the verifier side of a session.
type ClientOptions struct {
	// Seed fixes the verifier's randomness; empty draws fresh randomness.
	// Under v2 keep-alive every batch after the first reseeds with a
	// counter appended to this value (or fresh randomness when empty), so a
	// fixed seed still yields deterministic — but per-batch distinct —
	// queries.
	Seed []byte
	// Group overrides the ElGamal group (tests with non-production fields).
	Group *elgamal.Group
	// Workers is the verifier's parallelism over per-instance checks;
	// 0 or 1 verifies serially.
	Workers int
	// IOTimeout, when positive, is the per-message read/write deadline on
	// every prover connection.
	IOTimeout time.Duration
	// Program, when non-nil, is the already-compiled program for
	// hello.Source over hello's field, letting a caller that compiled the
	// source to pick its backend offer (see zaatar.WithBackend's auto
	// mode) skip the second compilation. It must match the hello.
	Program *compiler.Program
	// Redial, when non-nil, opens a replacement connection to prover i
	// after a hash-first (v3) hello is rejected by a pre-v3 server — such a
	// server answers with its own version in the error ack and closes the
	// connection, so the downgrade retry (full source, the server's
	// version) needs a fresh one. With Redial nil the session fails with
	// the server's rejection instead of downgrading. zaatar.Dial wires this
	// automatically.
	Redial func(ctx context.Context, i int) (net.Conn, error)
	// Addrs, when non-empty, names the prover behind each connection
	// (index-aligned with the conns given to NewSession). The names label
	// leg failures (*FarmError.Addr) so a caller can tell which worker
	// died; legs beyond the list fall back to the connection's remote
	// address. zaatar.Dial and zaatar.DialFarm fill this in.
	Addrs []string
	// Obs receives the client's counters and spans; nil uses
	// obs.Default().
	Obs *obs.Registry
	// Logger receives structured records for the session lifecycle and each
	// batch, carrying backend/program_hash attributes plus trace correlation
	// when the caller's context carries a trace. Nil disables logging.
	Logger *slog.Logger
}

func (o ClientOptions) registry() *obs.Registry {
	if o.Obs != nil {
		return o.Obs
	}
	return obs.Default()
}

// sessionLeg is the verifier's state for one prover connection.
type sessionLeg struct {
	conn    net.Conn
	cc      *timedCodec
	version int
	addr    string // worker name for failure attribution
	idx     int    // position within Session.legs
	// mu serializes the wire exchange of one shard on this leg when the
	// farm drives legs independently (RunBatch instead holds Session.mu and
	// touches every leg from one goroutine).
	mu sync.Mutex
	// per-batch scratch
	chunk [][]*big.Int
	cms   []*vc.Commitment
	resps []*vc.Response
}

// Session is the verifier side of a (possibly distributed) prover session.
// NewSession negotiates the wire version and compiles the verifier state
// once; each RunBatch then proves and verifies one batch. Under wire v2 the
// connection, the client- and server-side compilations, and the prover's
// QAP precomputation all carry over between batches — the paper's batching
// amortization (§5.2) extended across batches. The query seed and the
// commitment key are per-batch: each decommit reveals a consistency point
// over the key's secret vector r, so the key cannot soundly outlive its
// batch. A session is not safe for concurrent use; RunBatch calls are
// serialized internally.
type Session struct {
	mu       sync.Mutex
	hello    Hello
	opts     ClientOptions
	reg      *obs.Registry
	prog     *compiler.Program
	verifier *vc.Verifier
	legs     []*sessionLeg
	version  int    // min negotiated version across legs
	backend  string // negotiated proof backend (identical across legs)
	tc       *trace.Ctx
	sessTr   *trace.Span
	obsSpan  obs.Span
	log      *slog.Logger
	batches  int
	closed   bool
	multi    bool // more than one prover connection: leg errors carry worker attribution
}

// NewSession opens a verifier session over the given prover connections:
// it validates and sends the hello (offering wire v2 unless hello.Version
// pins an older dialect), collects the acks, and builds the verifier's
// query and commitment-key state. The context bounds only the handshake;
// the session itself lives until Close.
func NewSession(ctx context.Context, conns []net.Conn, hello Hello, opts ClientOptions) (s *Session, err error) {
	if len(conns) == 0 {
		return nil, errors.New("transport: no prover connections")
	}
	if hello.Version == 0 {
		hello.Version = MaxProtocolVersion
	}
	// Hash-first under v3: stamp the digest, and — when Redial makes the
	// downgrade retry possible — omit the source from the wire copies sent
	// below, so it leaves this process only if a server asks. Without
	// Redial the source rides along: a pre-v3 server that rejects the
	// hash-first form closes the connection, and recovery needs a fresh
	// one. An empty source is left alone so validation rejects it as
	// malformed.
	hashFirst := false
	if hello.version() >= ProtocolV3 && strings.TrimSpace(hello.Source) != "" {
		sum := sha256.Sum256([]byte(hello.Source))
		hello.SourceHash = sum[:]
		hashFirst = opts.Redial != nil
	}
	if err := hello.validate(0); err != nil {
		return nil, err
	}
	reg := opts.registry()
	reg.Counter(MetricClientSessions).Inc()

	// Root the session's trace (if the caller attached one) and stamp its
	// identifiers into the hello so the provers' spans join this trace.
	sessTr, tctx := trace.Child(ctx, "transport.session")
	sessTr.WithArg("provers", int64(len(conns)))
	tc := trace.FromContext(tctx)
	hello.Trace = tc.TraceID()
	hello.TraceParent = tc.SpanID()

	sess := &Session{
		hello:   hello,
		opts:    opts,
		reg:     reg,
		multi:   len(conns) > 1,
		version: MaxProtocolVersion,
		tc:      tc,
		sessTr:  sessTr,
		obsSpan: reg.StartSpan(MetricSpanClient),
		log:     obs.OrNop(opts.Logger).With(LabelProgramHash, ProgramHash(hello.Source)),
	}
	s = sess
	defer func() {
		if err != nil {
			err = ctxErr(ctx, err)
			sess.finish()
			s = nil
		}
	}()
	for _, conn := range conns {
		defer watch(ctx, conn)()
	}

	if opts.Program != nil {
		s.prog = opts.Program
	} else {
		compileTr := trace.Start(tctx, "verifier.compile")
		s.prog, err = compiler.Compile(hello.fieldOf(), hello.Source)
		compileTr.End()
		if err != nil {
			return nil, err
		}
	}

	// Legacy fallback for servers that predate backend negotiation: they
	// derive the backend from the Ginger bool, so the client assumes the
	// same derivation when the ack carries no pick.
	legacyBackend := pcp.BackendZaatar
	if hello.Ginger {
		legacyBackend = pcp.BackendGinger
	}
	offered := hello.offered()

	helloTr := trace.Start(tctx, "wire.hello_exchange")
	for i, conn := range conns {
		addr := ""
		if i < len(opts.Addrs) {
			addr = opts.Addrs[i]
		} else if ra := conn.RemoteAddr(); ra != nil {
			addr = ra.String()
		}
		leg := &sessionLeg{conn: conn, cc: newTimedCodec(conn, opts.IOTimeout), addr: addr, idx: i}
		wire := hello
		if hashFirst {
			wire.Source = ""
		}
		if err := leg.cc.send(wire); err != nil {
			helloTr.End()
			s.legs = append(s.legs, leg)
			return nil, s.legError(len(s.legs)-1, err)
		}
		s.legs = append(s.legs, leg)
	}
	// Per-leg ack processing runs concurrently: under v3 a prover that
	// misses the program asks this leg for an upload (or, pre-v3, rejects
	// and gets a downgrade redial), and when several legs reach one server
	// the singleflight build winner — the only leg asked to upload — may be
	// any of them. Serial processing would deadlock waiting on the wrong
	// leg. Redialed connections get their own ctx watcher for the rest of
	// the handshake, stopped when NewSession returns like the originals'.
	acks := make([]HelloAck, len(s.legs))
	legErrs := make([]error, len(s.legs))
	stops := make([]func() bool, len(s.legs))
	defer func() {
		for _, stop := range stops {
			if stop != nil {
				stop()
			}
		}
	}()
	var hsWG sync.WaitGroup
	for i := range s.legs {
		hsWG.Add(1)
		go func(i int) {
			defer hsWG.Done()
			acks[i], stops[i], legErrs[i] = s.handshakeLeg(ctx, i, s.legs[i], hello, hashFirst)
		}(i)
	}
	hsWG.Wait()
	for i, err := range legErrs {
		if err != nil {
			helloTr.End()
			return nil, s.legError(i, err)
		}
	}
	for i, leg := range s.legs {
		ack := acks[i]
		leg.version = ack.Version
		if leg.version == 0 {
			leg.version = ProtocolV1 // pre-versioning server
		}
		if leg.version > hello.Version {
			helloTr.End()
			return nil, &ProtocolVersionError{Version: leg.version, Max: hello.Version}
		}
		if ack.NumInputs != s.prog.NumInputs() || ack.NumOutputs != s.prog.NumOutputs() {
			helloTr.End()
			return nil, errors.New("transport: prover disagrees on the io shape")
		}
		if leg.version < s.version {
			s.version = leg.version
		}
		picked := ack.Backend
		if picked == "" {
			picked = legacyBackend
		}
		if !slicesContains(offered, picked) {
			helloTr.End()
			return nil, fmt.Errorf("%w: server picked %q, offered %v", ErrNoCommonBackend, picked, offered)
		}
		switch s.backend {
		case "":
			s.backend = picked
		case picked:
		default:
			helloTr.End()
			return nil, fmt.Errorf("%w: provers disagree (%q vs %q); a distributed batch needs one backend",
				ErrNoCommonBackend, s.backend, picked)
		}
	}
	helloTr.End()

	// The verifier is built only now: its query state (and whether it
	// generates commitment keys at all) depends on the negotiated backend.
	cfg := hello.config(0, opts.Seed, s.backend)
	cfg.Group = opts.Group
	cfg.Obs = opts.Obs
	setupTr, setupCtx := trace.Child(tctx, "vc.setup")
	s.verifier, err = vc.NewVerifierPre(setupCtx, s.prog, cfg, nil)
	setupTr.End()
	if err != nil {
		return nil, err
	}
	reg.CounterVec(MetricClientSessions, LabelBackend).With(s.backend).Inc()
	s.log = s.log.With(LabelBackend, s.backend)
	s.log.InfoContext(tctx, "session negotiated", "version", s.version, "provers", int64(len(conns)))
	return s, nil
}

// handshakeLeg completes one prover's hello exchange: take the ack, answer
// a SourceNeeded with the program source, and — when a pre-v3 server
// rejected the hash-first hello — redial and retry with the full source at
// the server's version. Returns the definitive ack, plus the stop func of
// the replacement connection's ctx watcher (nil without a redial).
func (s *Session) handshakeLeg(ctx context.Context, i int, leg *sessionLeg, hello Hello, hashFirst bool) (HelloAck, func() bool, error) {
	var ack HelloAck
	rerr := leg.cc.recv(&ack)
	if rerr == nil && ack.SourceNeeded {
		// This prover holds the program in neither its memory cache nor its
		// artifact store: upload the source the hello hashed.
		if err := leg.cc.send(SourceMsg{Source: hello.Source}); err != nil {
			return ack, nil, err
		}
		ack = HelloAck{}
		if err := leg.cc.recv(&ack); err != nil {
			return ack, nil, err
		}
	}
	// A pre-v3 server cannot open a hash-first session: a versioned one
	// rejects the unknown version in an error ack reporting the highest
	// version it speaks; a pre-versioning one fails on the empty source,
	// possibly dropping the connection without a decodable ack. Either way
	// the connection is done — redial and retry with the full source at the
	// server's version (v2 on a drop: a pre-versioning server ignores the
	// field, anything newer would have acked properly).
	downgrade := hashFirst &&
		((rerr != nil && ctx.Err() == nil) || (rerr == nil && ack.Err != "" && ack.Version < ProtocolV3))
	if rerr != nil && !downgrade {
		return ack, nil, rerr
	}
	var stop func() bool
	if downgrade {
		conn, derr := s.opts.Redial(ctx, i)
		if derr != nil {
			return ack, nil, fmt.Errorf("transport: redial for wire downgrade: %w (hash-first hello failed: %v%s)",
				derr, rerr, ack.Err)
		}
		stop = watch(ctx, conn)
		_ = leg.conn.Close()
		leg.conn, leg.cc = conn, newTimedCodec(conn, s.opts.IOTimeout)
		retry := hello
		retry.SourceHash = nil
		retry.Version = ack.Version
		if retry.Version == 0 {
			retry.Version = ProtocolV2 // let the reply negotiate lower
		}
		if err := leg.cc.send(retry); err != nil {
			return ack, stop, err
		}
		ack = HelloAck{}
		if err := leg.cc.recv(&ack); err != nil {
			return ack, stop, err
		}
	}
	if ack.Err != "" {
		return ack, stop, &RemoteError{Phase: "hello", Msg: ack.Err}
	}
	return ack, stop, nil
}

func slicesContains(list []string, want string) bool {
	for _, v := range list {
		if v == want {
			return true
		}
	}
	return false
}

// WireVersion reports the wire protocol version negotiated with the
// provers (the minimum across connections).
func (s *Session) WireVersion() int { return s.version }

// Backend reports the proof backend negotiated with the provers (identical
// across connections; NewSession fails otherwise).
func (s *Session) Backend() string { return s.backend }

// Program returns the compiled program (for io shape inspection).
func (s *Session) Program() *compiler.Program { return s.prog }

// SetupDuration reports the verifier's one-time session setup cost (query
// construction plus commitment-key generation) — the amortized numerator of
// the batching argument.
func (s *Session) SetupDuration() time.Duration { return s.verifier.SetupDuration() }

// deriveSeed gives batch b its own deterministic seed from a fixed base;
// an empty base stays empty (fresh randomness every batch).
func deriveSeed(base []byte, b int) []byte {
	if len(base) == 0 {
		return nil
	}
	out := make([]byte, 0, len(base)+4)
	out = append(out, base...)
	return append(out, byte(b>>24), byte(b>>16), byte(b>>8), byte(b))
}

// RunBatch proves and verifies one batch of instances, split contiguously
// across the session's prover connections. Every batch ships its own
// commit request: under wire v2 later batches reuse the connection and the
// negotiated (server-cached) program, but redraw the query seed and the
// commitment key — reusing the key across decommits would leak the secret
// vector r. On a session negotiated down to v1, a second RunBatch fails
// with ErrSingleBatch.
func (s *Session) RunBatch(ctx context.Context, batch [][]*big.Int) (res *SessionResult, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrSessionClosed
	}
	if len(batch) == 0 {
		return nil, fmt.Errorf("%w: 0 instances", ErrBatchTooLarge)
	}
	if s.batches > 0 && s.version < ProtocolV2 {
		return nil, ErrSingleBatch
	}
	defer func() { err = ctxErr(ctx, err) }()
	for _, leg := range s.legs {
		defer watch(ctx, leg.conn)()
	}
	ctx = trace.NewContext(ctx, s.tc)
	batchTr, ctx := trace.Child(ctx, "transport.batch")
	batchTr.WithArg("batch", int64(s.batches)).WithArg("instances", int64(len(batch)))
	defer batchTr.End()

	if s.batches > 0 {
		// Fresh queries and a fresh commitment key for a fresh batch: the
		// previous batch's decommit revealed t = r + Σ αᵢqᵢ, so carrying r
		// over would let the provers solve for it across batches (see
		// Verifier.Reseed).
		reseedTr, reseedCtx := trace.Child(ctx, "vc.reseed")
		err := s.verifier.Reseed(reseedCtx, deriveSeed(s.opts.Seed, s.batches))
		reseedTr.End()
		if err != nil {
			return nil, err
		}
	}
	// Every batch ships its own commit request: the commitment key is
	// per-batch state, and attaching it to the batch also means a leg left
	// idle by earlier (smaller) batches receives the key the first time it
	// is activated.
	req := s.verifier.Setup()

	// Partition the batch into contiguous chunks, one per prover; a batch
	// smaller than the prover count leaves the tail legs idle this round.
	legs := make([]*sessionLeg, 0, len(s.legs))
	per := (len(batch) + len(s.legs) - 1) / len(s.legs)
	for i, leg := range s.legs {
		lo := i * per
		if lo >= len(batch) {
			break
		}
		leg.chunk = batch[lo:min(lo+per, len(batch))]
		legs = append(legs, leg)
	}

	// Stage 1: commit request + inputs to every prover; collect all
	// commitments before revealing anything further (the soundness
	// barrier).
	commitTr := trace.Start(ctx, "wire.commit_exchange")
	for _, leg := range legs {
		if err := leg.cc.send(BatchMsg{Req: req, Instances: leg.chunk}); err != nil {
			return nil, s.legError(leg.idx, err)
		}
	}
	for _, leg := range legs {
		var cms CommitmentsMsg
		if err := leg.cc.recv(&cms); err != nil {
			return nil, s.legError(leg.idx, err)
		}
		if cms.Err != "" {
			return nil, s.legError(leg.idx, &RemoteError{Phase: "commit", Msg: cms.Err})
		}
		if len(cms.Items) != len(leg.chunk) {
			return nil, s.legError(leg.idx, errors.New("transport: commitment count mismatch"))
		}
		leg.cms = cms.Items
	}
	commitTr.End()

	// Stage 2: decommit to every prover, collect responses.
	decommitTr := trace.Start(ctx, "vc.decommit")
	dreq, err := s.verifier.Decommit()
	decommitTr.End()
	if err != nil {
		return nil, err
	}
	respondTr := trace.Start(ctx, "wire.respond_exchange")
	for _, leg := range legs {
		if err := leg.cc.send(DecommitMsg{Req: dreq}); err != nil {
			return nil, s.legError(leg.idx, err)
		}
	}
	for _, leg := range legs {
		var resp ResponsesMsg
		if err := leg.cc.recv(&resp); err != nil {
			return nil, s.legError(leg.idx, err)
		}
		if resp.Err != "" {
			return nil, s.legError(leg.idx, &RemoteError{Phase: "respond", Msg: resp.Err})
		}
		if len(resp.Items) != len(leg.chunk) {
			return nil, s.legError(leg.idx, errors.New("transport: response count mismatch"))
		}
		leg.resps = resp.Items
		// Stitch this prover's spans into our timeline (records from any
		// other trace are dropped by Import).
		s.tc.Import(resp.Trace)
	}
	respondTr.End()

	// Stage 3: verify everything — in parallel over opts.Workers; the
	// verifier's state is read-only after Decommit.
	type flat struct {
		in   []*big.Int
		cm   *vc.Commitment
		resp *vc.Response
	}
	items := make([]flat, 0, len(batch))
	for _, leg := range legs {
		for i := range leg.chunk {
			items = append(items, flat{leg.chunk[i], leg.cms[i], leg.resps[i]})
		}
	}
	out := &SessionResult{
		Accepted: make([]bool, len(items)),
		Reasons:  make([]string, len(items)),
		Outputs:  make([][]*big.Int, len(items)),
	}
	phases := s.reg.HistogramVec(vc.MetricPhase, vc.LabelPhase, vc.LabelBackend)
	verifyTr, verifyCtx := trace.Child(ctx, "vc.verify_stage")
	defer verifyTr.End()
	if err := vc.ForEach(ctx, len(items), s.opts.Workers, func(i int) error {
		vsp := trace.Start(verifyCtx, "vc.verify").WithArg("instance", int64(i))
		defer vsp.End()
		t0 := time.Now()
		ok, reason := s.verifier.VerifyInstance(ctx, items[i].in, items[i].cm, items[i].resp)
		phases.With("verify", s.backend).Observe(time.Since(t0))
		out.Accepted[i] = ok
		out.Reasons[i] = reason
		out.Outputs[i] = items[i].cm.Output
		return nil
	}); err != nil {
		return nil, err
	}
	verifyTr.End()
	accepted := 0
	for _, ok := range out.Accepted {
		if ok {
			accepted++
		}
	}
	s.log.InfoContext(ctx, "batch verified", "batch", s.batches, "instances", len(items), "accepted", accepted)
	s.batches++
	return out, nil
}

// finish ends the session's spans exactly once; callers hold no lock.
func (s *Session) finish() {
	s.sessTr.End()
	s.obsSpan.End()
}

// Close ends the session: v2 provers get a goodbye frame so they log a
// clean end rather than a hangup, and every connection is closed. Close is
// idempotent and safe after errors.
func (s *Session) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	for _, leg := range s.legs {
		if leg.version >= ProtocolV2 {
			_ = leg.cc.send(BatchMsg{Close: true})
		}
		_ = leg.conn.Close()
	}
	s.finish()
	return nil
}

// RunSession drives the verifier side of a single batch over an established
// connection. The protocol parameters come from hello, which both sides
// see; the verifier's secret randomness does not.
func RunSession(ctx context.Context, conn net.Conn, hello Hello, opts ClientOptions, batch [][]*big.Int) (*SessionResult, error) {
	return RunSessionDistributed(ctx, []net.Conn{conn}, hello, opts, batch)
}

// RunSessionDistributed splits one batch across several prover connections —
// the paper's distributed prover (§5.1: "the prover can be distributed over
// multiple machines, with each machine computing a subset of a batch").
// Binding is preserved because the query seed is revealed only after every
// prover's commitments have arrived. Cancelling ctx closes the connections
// and returns ctx.Err(). For multiple batches on one connection, use
// NewSession directly.
func RunSessionDistributed(ctx context.Context, conns []net.Conn, hello Hello, opts ClientOptions, batch [][]*big.Int) (*SessionResult, error) {
	sess, err := NewSession(ctx, conns, hello, opts)
	if err != nil {
		return nil, err
	}
	defer sess.Close()
	res, err := sess.RunBatch(ctx, batch)
	if err != nil {
		return nil, ctxErr(ctx, err)
	}
	return res, nil
}

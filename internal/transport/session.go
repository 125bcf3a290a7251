package transport

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"log/slog"
	"math/big"
	"net"
	"slices"
	"strings"
	"sync"
	"time"

	"zaatar/internal/compiler"
	"zaatar/internal/elgamal"
	"zaatar/internal/obs"
	"zaatar/internal/obs/trace"
	"zaatar/internal/vc"
)

// ClientOptions configures the verifier side of a session.
type ClientOptions struct {
	// Seed fixes the verifier's randomness; empty draws fresh randomness.
	// Every batch after the first reseeds with a counter appended to this
	// value (or fresh randomness when empty), so a fixed seed still yields
	// deterministic — but per-batch distinct — queries.
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
	conn net.Conn
	cc   *timedCodec
	addr string // worker name for failure attribution
	// mu serializes the wire exchanges of one batch on this leg, so the
	// farm can drive distinct legs concurrently.
	mu sync.Mutex
}

// errMultiLeg refuses Session.RunBatch on a session over several provers:
// the farm (internal/farm) drives those legs, one Session.Leg link each.
var errMultiLeg = errors.New("transport: RunBatch drives a one-prover session; shard a multi-prover session with internal/farm (zaatar.DialFarm)")

// Session is the verifier side of a prover session. NewSession opens it and
// compiles the verifier state once; each RunBatch then proves and verifies
// one batch. The connection, the client- and server-side compilations, and
// the prover's QAP precomputation all carry over between batches — the
// paper's batching amortization (§5.2) extended across batches. The query
// seed and the commitment key are per-batch: each decommit reveals a
// consistency point over the key's secret vector r, so the key cannot
// soundly outlive its batch. A session is not safe for concurrent use;
// RunBatch calls are serialized internally.
type Session struct {
	mu       sync.Mutex
	opts     ClientOptions
	prog     *compiler.Program
	verifier *vc.Verifier
	legs     []*sessionLeg
	backend  string // negotiated proof backend (identical across legs)
	tc       *trace.Ctx
	sessTr   *trace.Span
	obsSpan  obs.Span
	log      *slog.Logger
	batches  int // batches verified
	reseeds  int // re-keys so far; names each fresh query seed
	closed   bool
	multi    bool // more than one prover connection: leg errors carry worker attribution
}

// NewSession opens a verifier session over the given prover connections:
// it validates and sends the hash-first hello, uploads the source to any
// prover that asks for it, collects the acks, and builds the verifier's
// query and commitment-key state. The context bounds only the handshake;
// the session itself lives until Close.
func NewSession(ctx context.Context, conns []net.Conn, hello Hello, opts ClientOptions) (s *Session, err error) {
	if len(conns) == 0 {
		return nil, errors.New("transport: no prover connections")
	}
	hello.Version = MaxProtocolVersion
	// Stamp the digest; the wire copies sent below omit the source, so it
	// leaves this process only if a server asks. An empty source is left
	// alone so validation rejects it as malformed.
	if strings.TrimSpace(hello.Source) != "" {
		sum := sha256.Sum256([]byte(hello.Source))
		hello.SourceHash = sum[:]
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
		opts:    opts,
		multi:   len(conns) > 1,
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

	helloTr := trace.Start(tctx, "wire.hello_exchange")
	defer helloTr.End()
	wire := hello
	wire.Source = ""
	for i, conn := range conns {
		addr := ""
		if i < len(opts.Addrs) {
			addr = opts.Addrs[i]
		} else if ra := conn.RemoteAddr(); ra != nil {
			addr = ra.String()
		}
		s.legs = append(s.legs, &sessionLeg{conn: conn, cc: newTimedCodec(conn, opts.IOTimeout), addr: addr})
		if err := s.legs[i].cc.send(wire); err != nil {
			return nil, s.legError(i, err)
		}
	}
	// Per-leg ack processing runs concurrently: a prover that misses the
	// program asks its leg for an upload, and when several legs reach one
	// server the singleflight build winner — the only leg asked to upload —
	// may be any of them. Serial processing would deadlock waiting on the
	// wrong leg.
	acks := make([]HelloAck, len(s.legs))
	legErrs := make([]error, len(s.legs))
	var hsWG sync.WaitGroup
	for i, leg := range s.legs {
		hsWG.Add(1)
		go func() {
			defer hsWG.Done()
			acks[i], legErrs[i] = handshakeLeg(leg, hello.Source)
		}()
	}
	hsWG.Wait()
	for i, err := range legErrs {
		if err != nil {
			return nil, s.legError(i, err)
		}
	}
	for _, ack := range acks {
		if ack.NumInputs != s.prog.NumInputs() || ack.NumOutputs != s.prog.NumOutputs() {
			return nil, errors.New("transport: prover disagrees on the io shape")
		}
		if !slices.Contains(hello.Backends, ack.Backend) {
			return nil, fmt.Errorf("%w: server picked %q, offered %v", ErrNoCommonBackend, ack.Backend, hello.Backends)
		}
		switch s.backend {
		case "":
			s.backend = ack.Backend
		case ack.Backend:
		default:
			return nil, fmt.Errorf("%w: provers disagree (%q vs %q); a distributed batch needs one backend",
				ErrNoCommonBackend, s.backend, ack.Backend)
		}
	}
	helloTr.End()

	// The verifier is built only now: its query state (and whether it
	// generates commitment keys at all) depends on the negotiated backend.
	cfg := hello.config(0, opts.Seed, s.backend)
	cfg.Group = opts.Group
	cfg.Obs = opts.Obs
	s.verifier, err = vc.NewVerifierPre(tctx, s.prog, cfg, nil)
	if err != nil {
		return nil, err
	}
	reg.CounterVec(MetricClientSessions, LabelBackend).With(s.backend).Inc()
	s.log = s.log.With(LabelBackend, s.backend)
	s.log.InfoContext(tctx, "session negotiated", "provers", int64(len(conns)))
	return s, nil
}

// handshakeLeg completes one prover's hello exchange: take the ack, answer
// a SourceNeeded with the program source, and refuse an ack that is an
// error or stamps another wire version. (An ack naming no backend fails
// NewSession's check against the offer.)
func handshakeLeg(leg *sessionLeg, source string) (HelloAck, error) {
	var ack HelloAck
	if err := leg.cc.recv(&ack); err != nil {
		return ack, err
	}
	if ack.SourceNeeded {
		// This prover holds the program in neither its memory cache nor its
		// artifact store: upload the source the hello hashed.
		if err := leg.cc.send(SourceMsg{Source: source}); err != nil {
			return ack, err
		}
		ack = HelloAck{}
		if err := leg.cc.recv(&ack); err != nil {
			return ack, err
		}
	}
	switch {
	case ack.Err != "":
		return ack, &RemoteError{Phase: "hello", Msg: ack.Err}
	case ack.Version != MaxProtocolVersion:
		return ack, &ProtocolVersionError{Version: ack.Version, Max: MaxProtocolVersion}
	}
	return ack, nil
}

// Backend reports the proof backend negotiated with the provers (identical
// across connections; NewSession fails otherwise).
func (s *Session) Backend() string { return s.backend }

// Program returns the compiled program (for io shape inspection).
func (s *Session) Program() *compiler.Program { return s.prog }

// SetupDuration reports the verifier's one-time session setup cost (query
// construction plus commitment-key generation) — the amortized numerator of
// the batching argument.
func (s *Session) SetupDuration() time.Duration { return s.verifier.SetupDuration() }

// RunBatch proves and verifies one batch of instances on a one-prover
// session: vc.Drive over the session's one wire leg. Every batch ships its
// own commit request: later batches reuse the connection and the
// negotiated (server-cached) program, but a verifier whose request already
// went out redraws the query seed and the commitment key first — reusing
// the key across decommits would leak the secret vector r. A session over
// several provers is refused; the farm shards those.
func (s *Session) RunBatch(ctx context.Context, batch [][]*big.Int) (res *SessionResult, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case s.closed:
		return nil, ErrSessionClosed
	case len(s.legs) != 1:
		return nil, errMultiLeg
	case len(batch) == 0:
		return nil, fmt.Errorf("%w: 0 instances", ErrBatchTooLarge)
	}
	defer func() { err = ctxErr(ctx, err) }()
	ctx = trace.NewContext(ctx, s.tc)
	batchTr, ctx := trace.Child(ctx, "transport.batch")
	batchTr.WithArg("batch", int64(s.batches)).WithArg("instances", int64(len(batch)))
	defer batchTr.End()

	if s.verifier.Spent() {
		// Fresh queries and a fresh commitment key for a fresh batch: the
		// previous decommit revealed t = r + Σ αᵢqᵢ, so carrying r over
		// would let the prover solve for it (see Verifier.Reseed).
		s.reseeds++
		if err := s.verifier.Reseed(ctx, vc.DeriveSeed(s.opts.Seed, s.reseeds)); err != nil {
			return nil, err
		}
	}
	res, err = vc.Drive(ctx, s.verifier, &legLink{s: s}, batch, s.opts.Workers)
	if err != nil {
		return nil, err
	}
	accepted := 0
	for _, ok := range res.Accepted {
		if ok {
			accepted++
		}
	}
	s.log.InfoContext(ctx, "batch verified", "batch", s.batches, "instances", len(batch), "accepted", accepted)
	s.batches++
	return res, nil
}

// finish ends the session's spans exactly once; callers hold no lock.
func (s *Session) finish() {
	s.sessTr.End()
	s.obsSpan.End()
}

// Close ends the session: every prover gets a goodbye frame so it logs a
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
		_ = leg.cc.send(BatchMsg{Close: true})
		_ = leg.conn.Close()
	}
	s.finish()
	return nil
}

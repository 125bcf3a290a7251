// Package transport runs the verified-computation protocol between a
// verifier and a prover connected by any net.Conn, with gob-encoded
// messages. This realizes the deployment picture of Figure 1: the verifier
// ships the computation Ψ and the batch of inputs; per [53] Apdx A.3 the
// query material crossing the wire is one encrypted commitment vector, a
// PRG seed, and the consistency points, rather than full query sets.
//
// One wire dialect is spoken, protocol v3. The hello names the program by
// sha256(source); the server answers SourceNeeded only when its memory
// cache does not hold the program, so a warm server opens the session with
// the program never crossing the wire. After the hello a
// connection carries any number of batches, all reusing the negotiated
// program (and, server-side, its cached compilation and QAP
// precomputation). Each batch carries its own commit request: the
// commitment key is per-batch — a decommit reveals a consistency point over
// the key's secret vector, so a key reused across batches would stop
// binding. A hello or ack stamped with any other Version is refused with a
// *ProtocolVersionError.
//
// The prover side is a long-lived multi-tenant Service: compiled programs
// and their prover precomputations live in an LRU shared across sessions,
// and a service-wide admission semaphore bounds how many sessions compute
// concurrently. The verifier side keeps only the per-connection half: a
// Conn (Open / Commit / Respond / Close) is one handshaken prover
// connection and the vc.ProverLink for one batch at a time. The verifier
// client that owns the connections — compiling once, building and
// re-keying the verifiers, sharding batches, attributing failures — is the
// farm (internal/farm), over one connection or many.
//
// Both ends are context-aware: cancelling the context closes the
// connection, unblocking any in-flight read or write, and per-message I/O
// deadlines bound how long a stalled peer can hold a session. Failures
// reported by the peer surface as *RemoteError; local protocol violations
// wrap the Err* sentinel errors, and version mismatches surface as
// *ProtocolVersionError.
//
// cmd/zaatar-server and cmd/zaatar-client reach this package through the
// public zaatar API (zaatar.Serve, zaatar.Dial, zaatar.DialFarm); tests
// drive both ends over net.Pipe.
package transport

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"errors"
	"fmt"
	"math/big"
	"net"
	"strings"
	"time"

	"zaatar/internal/field"
	"zaatar/internal/obs/trace"
	"zaatar/internal/pcp"
	"zaatar/internal/vc"
)

// MaxProtocolVersion is the one wire protocol version this build speaks:
// hash-first hellos, keep-alive sessions, one commit request per batch.
// Hello.Version and HelloAck.Version must both equal it.
const MaxProtocolVersion = 3

// Typed failures. Peer-reported errors are *RemoteError; local validation
// failures wrap the sentinels.
var (
	// ErrBatchTooLarge reports a batch outside the server's [1, MaxBatch]
	// window.
	ErrBatchTooLarge = errors.New("transport: batch size out of range")
	// ErrMalformedHello reports a session-opening message that fails
	// validation (empty or oversized source, out-of-range parameters).
	ErrMalformedHello = errors.New("transport: malformed hello")
	// ErrSessionClosed reports a batch on a closed Conn or client.
	ErrSessionClosed = errors.New("transport: session closed")
	// ErrNoCommonBackend reports a hello whose offered proof backends share
	// no member with the server's supported set.
	ErrNoCommonBackend = errors.New("transport: no common proof backend")
	// ErrSourceTooLarge reports a program source beyond the receiving
	// side's size limit (ServiceOptions.MaxSourceBytes on the server;
	// DefaultMaxSourceBytes elsewhere).
	ErrSourceTooLarge = errors.New("transport: source exceeds the size limit")
)

// RemoteError is a failure the peer reported over the wire, tagged with the
// protocol phase ("hello", "commit", "respond") in which it occurred.
type RemoteError struct {
	Phase string
	Msg   string
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("transport: prover failed in %s phase: %s", e.Phase, e.Msg)
}

// ProtocolVersionError reports a wire version this build does not speak:
// a Hello or an ack stamped with anything but MaxProtocolVersion. Max names
// the version the reporting side speaks.
type ProtocolVersionError struct {
	Version int // the version the peer stamped
	Max     int // the version this side speaks
}

func (e *ProtocolVersionError) Error() string {
	return fmt.Sprintf("transport: unsupported wire protocol version %d (max supported %d)", e.Version, e.Max)
}

// Metric names recorded into the obs registry by the transport layer. Each
// is one family of one kind (docs/PROTOCOL.md §6.1, §7): the sessions,
// batches, instances, source-skip and client-session counters
// exist only as the labeled vectors keyed by the labels below — a total is
// sum() in the scrape, or CounterVec.Total in Go.
const (
	MetricSessions       = "transport.sessions"        // counter{backend}: server sessions negotiated
	MetricSessionErrors  = "transport.session.errors"  // counter: server sessions failed
	MetricServedInstance = "transport.instances"       // counter{backend,program_hash}: instances served
	MetricServedBatches  = "transport.batches"         // counter{backend,program_hash}: batches served (≥ sessions under keep-alive)
	MetricSpanSession    = "transport.session"         // histogram: server session wall
	MetricClientSessions = "transport.client.sessions" // counter{backend}: client sessions negotiated
	MetricSpanClient     = "transport.client.session"  // histogram: client session wall

	MetricCacheHits      = "transport.cache.hits"      // counter: program-cache hits
	MetricCacheMisses    = "transport.cache.misses"    // counter: program-cache misses (compiles)
	MetricCacheEvictions = "transport.cache.evictions" // counter: program-cache LRU evictions
	MetricCacheEntries   = "transport.cache.entries"   // gauge: programs currently cached

	MetricAdmissionWait   = "transport.admission.wait"   // histogram: time a session waited for an admission slot
	MetricAdmissionActive = "transport.admission.active" // gauge: sessions currently holding an admission slot

	MetricConnsOpen     = "transport.conns.open"     // gauge: connections currently open in Serve
	MetricConnsRejected = "transport.conns.rejected" // counter: connections refused at the MaxConns cap
	MetricIdleClosed    = "transport.idle.closed"    // counter: idle keep-alive connections reaped

	MetricHelloSourceSkipped = "transport.hello.source_skipped" // counter{program_hash}: sessions opened without a source upload
	MetricHelloBytesSaved    = "transport.hello.bytes_saved"    // counter: source bytes never sent thanks to hash-first hellos
)

// Label keys of the labeled transport metrics. The label schema — allowed
// keys, cardinality bounds, and the program-hash truncation rule — is
// documented in docs/PROTOCOL.md §7.1.
const (
	LabelBackend     = "backend"
	LabelProgramHash = "program_hash"
)

// ProgramHashLen is how many hex characters of the program's SHA-256 a
// metric label carries: 48 bits — enough to tell tenants' programs apart,
// short enough to keep series names readable.
const ProgramHashLen = 12

// ProgramHash derives the metric-label identity of a program source: the
// first ProgramHashLen hex characters of its SHA-256. The full digest
// remains the cache key (cache.go); the label is deliberately truncated
// since metric labels need distinguishability, not collision resistance.
func ProgramHash(source string) string {
	sum := sha256.Sum256([]byte(source))
	return hex.EncodeToString(sum[:])[:ProgramHashLen]
}

// Hello opens a session: the verifier ships the computation and protocol
// parameters (everything except its secret randomness).
type Hello struct {
	Source       string
	Field220     bool
	RhoLin, Rho  int
	NoCommitment bool

	// Backends is the ordered list of proof backends the client can verify,
	// most preferred first; the server answers (in HelloAck.Backend) with
	// the first offered name it supports. An empty offer is malformed.
	Backends []string

	// Version is the wire protocol version the client speaks; the server
	// refuses any value but MaxProtocolVersion.
	Version int

	// SourceHash is sha256(Source). A client may send the hash alone
	// (Source empty): a server that already holds the program in its
	// memory cache opens the session without the source ever crossing the
	// wire, and answers HelloAck.SourceNeeded otherwise. When both fields are present they
	// must agree.
	SourceHash []byte

	// Trace and TraceParent propagate the verifier's trace context so the
	// prover's spans land in the same trace (under the verifier's session
	// span). Zero values leave tracing off for the session.
	Trace       trace.TraceID
	TraceParent trace.SpanID
}

// DefaultMaxSourceBytes is the source-size bound applied when no explicit
// limit is configured (ServiceOptions.MaxSourceBytes).
const DefaultMaxSourceBytes = 1 << 20

// Sanity bounds on Hello fields; beyond these the message is malformed
// rather than merely expensive.
const (
	maxRepetitions  = 1 << 12
	maxBackends     = 8
	maxBackendBytes = 32
)

// hashFirst reports a hash-only hello: no source, just its digest.
func (h Hello) hashFirst() bool {
	return h.Source == "" && len(h.SourceHash) == sha256.Size
}

// Stamp completes a client's hello for the wire and validates it: the
// protocol version, and the source digest that lets a warm prover open the
// session without the source (an empty source is left for validation to
// refuse). The caller adds its trace position (Trace, TraceParent).
func (h Hello) Stamp() (Hello, error) {
	h.Version = MaxProtocolVersion
	if strings.TrimSpace(h.Source) != "" {
		sum := sha256.Sum256([]byte(h.Source))
		h.SourceHash = sum[:]
	}
	return h, h.validate(0)
}

// validate checks the hello against maxSource (0 means
// DefaultMaxSourceBytes).
func (h Hello) validate(maxSource int) error {
	if maxSource <= 0 {
		maxSource = DefaultMaxSourceBytes
	}
	switch {
	case h.Version != MaxProtocolVersion:
		return &ProtocolVersionError{Version: h.Version, Max: MaxProtocolVersion}
	case strings.TrimSpace(h.Source) == "" && !h.hashFirst():
		return fmt.Errorf("%w: empty source", ErrMalformedHello)
	case len(h.Source) > maxSource:
		return fmt.Errorf("%w: source is %d bytes (max %d)", ErrSourceTooLarge, len(h.Source), maxSource)
	case len(h.SourceHash) != 0 && len(h.SourceHash) != sha256.Size:
		return fmt.Errorf("%w: source hash is %d bytes, want %d", ErrMalformedHello, len(h.SourceHash), sha256.Size)
	case h.RhoLin < 0 || h.Rho < 0 || h.RhoLin > maxRepetitions || h.Rho > maxRepetitions:
		return fmt.Errorf("%w: PCP repetitions (ρ_lin=%d, ρ=%d) out of range [0, %d]",
			ErrMalformedHello, h.RhoLin, h.Rho, maxRepetitions)
	case len(h.Backends) == 0:
		return fmt.Errorf("%w: no backend offered", ErrMalformedHello)
	case len(h.Backends) > maxBackends:
		return fmt.Errorf("%w: %d backend names offered (max %d)", ErrMalformedHello, len(h.Backends), maxBackends)
	}
	for _, name := range h.Backends {
		if name == "" || len(name) > maxBackendBytes {
			return fmt.Errorf("%w: bad backend name %q", ErrMalformedHello, name)
		}
	}
	if h.Source != "" && len(h.SourceHash) == sha256.Size {
		if sum := sha256.Sum256([]byte(h.Source)); !bytes.Equal(sum[:], h.SourceHash) {
			return fmt.Errorf("%w: source hash does not match the source", ErrMalformedHello)
		}
	}
	return nil
}

// HelloAck reports compilation results (or an error) back to the verifier.
// A first ack with SourceNeeded set is an interim frame: the server does
// not hold the program for the hello's hash, the client
// answers with a SourceMsg, and the definitive ack follows.
type HelloAck struct {
	Err                   string
	NumInputs, NumOutputs int
	// SourceNeeded asks a hash-first client to upload the program source
	// before the session can open.
	SourceNeeded bool
	// Version is MaxProtocolVersion; the client refuses an ack carrying
	// any other.
	Version int
	// Backend is the proof backend the server selected from the hello's
	// offer. The client refuses a successful ack that names none.
	Backend string
}

// SourceMsg answers a SourceNeeded ack with the program source whose hash
// the hello claimed; the server verifies the digest before compiling.
type SourceMsg struct {
	Source string
}

// BatchMsg carries one batch: the per-instance inputs plus that batch's
// commit request — the key material is per-batch, so every batch ships a
// fresh Req and the server refuses a batch without one. A final Close frame
// ends the session cleanly.
type BatchMsg struct {
	Req       *vc.CommitRequest
	Instances [][]*big.Int
	// Close marks a goodbye frame: no batch follows and the server ends the
	// session with success.
	Close bool
}

// CommitmentsMsg returns the per-instance commitments (with claimed
// outputs).
type CommitmentsMsg struct {
	Err   string
	Items []*vc.Commitment
}

// DecommitMsg reveals the query seed and consistency points.
type DecommitMsg struct {
	Req *vc.DecommitRequest
}

// ResponsesMsg returns the per-instance query answers. When the session is
// traced, Trace carries the prover's completed spans back to the verifier,
// which stitches them into its own timeline. Each batch ships only the
// spans completed since the previous one.
type ResponsesMsg struct {
	Err   string
	Items []*vc.Response
	Trace []trace.Record
}

// SessionResult is the verifier-side outcome of one batch: the verdict
// vc.Drive returns on every link.
type SessionResult = vc.Verdict

// Field is the prime field the hello's program is compiled over.
func (h Hello) Field() *field.Field {
	if h.Field220 {
		return field.F220()
	}
	return field.F128()
}

// Config builds the vc configuration for the session's negotiated backend.
// The backend is resolved exactly once per session — by negotiateBackend on
// the server, from the acks on the client (internal/farm) — and passed
// through here, so no later stage re-derives it from the hello.
func (h Hello) Config(workers int, seed []byte, backend string) vc.Config {
	return vc.Config{
		Backend:      backend,
		Params:       pcp.Params{RhoLin: h.RhoLin, Rho: h.Rho},
		NoCommitment: h.NoCommitment,
		Workers:      workers,
		Seed:         seed,
	}
}

// negotiateBackend picks the first offered backend the server supports.
func negotiateBackend(offered, supported []string) (string, error) {
	for _, want := range offered {
		for _, have := range supported {
			if want == have {
				return want, nil
			}
		}
	}
	return "", fmt.Errorf("%w: offered %v, supported %v", ErrNoCommonBackend, offered, supported)
}

// timedCodec arms a fresh connection deadline before every gob message, so
// one stalled peer cannot pin a session goroutine forever.
type timedCodec struct {
	conn    net.Conn
	timeout time.Duration
	enc     *gob.Encoder
	dec     *gob.Decoder
}

func newTimedCodec(conn net.Conn, timeout time.Duration) *timedCodec {
	return &timedCodec{conn: conn, timeout: timeout, enc: gob.NewEncoder(conn), dec: gob.NewDecoder(conn)}
}

func (c *timedCodec) arm() {
	if c.timeout > 0 {
		_ = c.conn.SetDeadline(time.Now().Add(c.timeout))
	}
}

func (c *timedCodec) send(v any) error {
	c.arm()
	return c.enc.Encode(v)
}

func (c *timedCodec) recv(v any) error {
	c.arm()
	return c.dec.Decode(v)
}

// recvTimeout is recv with an explicit deadline replacing the per-message
// timeout; d ≤ 0 falls back to the default arming.
func (c *timedCodec) recvTimeout(v any, d time.Duration) error {
	if d <= 0 {
		return c.recv(v)
	}
	_ = c.conn.SetDeadline(time.Now().Add(d))
	return c.dec.Decode(v)
}

// watch closes conn when ctx is cancelled, unblocking in-flight gob I/O;
// the returned stop func releases the watcher.
func watch(ctx context.Context, conn net.Conn) (stop func() bool) {
	return context.AfterFunc(ctx, func() { _ = conn.Close() })
}

// ctxErr maps an I/O error on a cancelled session to the context's error,
// so callers see ctx.Err() rather than "use of closed network connection".
func ctxErr(ctx context.Context, err error) error {
	if err != nil && ctx.Err() != nil {
		return ctx.Err()
	}
	return err
}

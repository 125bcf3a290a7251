package transport

import (
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"math/big"
	"net"
	"sync"
	"testing"
	"time"

	"zaatar/internal/compiler"
	"zaatar/internal/elgamal"
	"zaatar/internal/field"
	"zaatar/internal/obs"
	"zaatar/internal/obs/trace"
	"zaatar/internal/pcp"
	"zaatar/internal/prg"
	"zaatar/internal/vc"
)

// servicePipe connects a client conn to svc, serving the server end in a
// goroutine; the returned channel yields the server-side error.
func servicePipe(svc *Service) (net.Conn, chan error) {
	client, server := net.Pipe()
	errCh := make(chan error, 1)
	go func() { errCh <- svc.ServeConn(context.Background(), server) }()
	return client, errCh
}

func testService(opts ServiceOptions) (*Service, *obs.Registry) {
	if opts.Obs == nil {
		opts.Obs = obs.NewRegistry()
	}
	return NewService(opts), opts.Obs
}

func checkBatch(t *testing.T, res *SessionResult, inputs []int64) {
	t.Helper()
	if !res.AllAccepted() {
		t.Fatalf("rejected: %v", res.Reasons)
	}
	for i, x := range inputs {
		if res.Outputs[i][0].Int64() != x-3 || res.Outputs[i][1].Int64() != x*x {
			t.Fatalf("instance %d (x=%d): outputs %v", i, x, res.Outputs[i])
		}
	}
}

func instances(xs ...int64) [][]*big.Int {
	batch := make([][]*big.Int, len(xs))
	for i, x := range xs {
		batch[i] = []*big.Int{big.NewInt(x)}
	}
	return batch
}

// TestKeepAliveMultiBatch pushes three batches over one connection: the
// program is negotiated once, each batch redraws its queries, and the
// server counts one session but three batches.
func TestKeepAliveMultiBatch(t *testing.T) {
	svc, reg := testService(ServiceOptions{Workers: 2})
	client, errCh := servicePipe(svc)
	hello := Hello{Source: sessionSrc, Backends: zaatarOnly, RhoLin: 2, Rho: 2, NoCommitment: true}
	sess, err := openSession(context.Background(), client, hello, clientOpts{Seed: []byte("ka")})
	if err != nil {
		t.Fatal(err)
	}
	for b, xs := range [][]int64{{10, -4}, {6}, {1, 2, 3}} {
		res, err := sess.RunBatch(context.Background(), instances(xs...))
		if err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
		checkBatch(t, res, xs)
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-errCh; err != nil {
		t.Fatalf("server: %v", err)
	}
	if got := reg.CounterVec(MetricSessions, LabelBackend).Total(); got != 1 {
		t.Fatalf("sessions = %d, want 1", got)
	}
	if got := reg.CounterVec(MetricServedBatches, LabelBackend, LabelProgramHash).Total(); got != 3 {
		t.Fatalf("batches = %d, want 3", got)
	}
	if got := reg.CounterVec(MetricServedInstance, LabelBackend, LabelProgramHash).Total(); got != 6 {
		t.Fatalf("instances = %d, want 6", got)
	}
}

// acceptHello is a bare prover's side of the hello exchange: it caches
// nothing, so it always asks for the source, then compiles it and acks the
// hello's first offered backend.
func acceptHello(dec *gob.Decoder, enc *gob.Encoder) (Hello, *compiler.Program, error) {
	var h Hello
	if err := dec.Decode(&h); err != nil {
		return h, nil, err
	}
	if err := enc.Encode(HelloAck{SourceNeeded: true, Version: MaxProtocolVersion}); err != nil {
		return h, nil, err
	}
	var src SourceMsg
	if err := dec.Decode(&src); err != nil {
		return h, nil, err
	}
	h.Source = src.Source
	prog, err := compiler.Compile(h.Field(), h.Source)
	if err != nil {
		return h, nil, err
	}
	ack := HelloAck{NumInputs: prog.NumInputs(), NumOutputs: prog.NumOutputs(), Version: MaxProtocolVersion, Backend: h.Backends[0]}
	return h, prog, enc.Encode(ack)
}

// recordingProver is a hand-rolled prover loop that hands each wire message
// to the callbacks (either may be nil) before handling it — tests use it to
// observe protocol-level invariants the real Service does not surface.
func recordingProver(server net.Conn, onBatch func(BatchMsg), onDecommit func(DecommitMsg)) error {
	defer server.Close()
	dec, enc := gob.NewDecoder(server), gob.NewEncoder(server)
	h, prog, err := acceptHello(dec, enc)
	if err != nil {
		return err
	}
	prover, err := vc.NewProver(prog, h.Config(1, nil, h.Backends[0]))
	if err != nil {
		return err
	}
	for {
		var b BatchMsg
		if err := dec.Decode(&b); err != nil {
			return err
		}
		if b.Close {
			return nil
		}
		if onBatch != nil {
			onBatch(b)
		}
		if err := prover.HandleCommitRequest(b.Req); err != nil {
			return err
		}
		n := len(b.Instances)
		states := make([]*vc.InstanceState, n)
		cms := CommitmentsMsg{Items: make([]*vc.Commitment, n)}
		for i := range b.Instances {
			if cms.Items[i], states[i], err = prover.Commit(context.Background(), b.Instances[i]); err != nil {
				return err
			}
		}
		if err := enc.Encode(cms); err != nil {
			return err
		}
		var d DecommitMsg
		if err := dec.Decode(&d); err != nil {
			return err
		}
		if onDecommit != nil {
			onDecommit(d)
		}
		if err := prover.HandleDecommit(d.Req); err != nil {
			return err
		}
		resp := ResponsesMsg{Items: make([]*vc.Response, n)}
		for i := range states {
			if resp.Items[i], err = prover.Respond(context.Background(), states[i]); err != nil {
				return err
			}
		}
		if err := enc.Encode(resp); err != nil {
			return err
		}
	}
}

// TestServiceRejectsMaliciousCommitRequest replays the crash a hostile
// client used to cause: a commit request whose ciphertext carries a
// component ≡ 0 mod P reached the Montgomery batch inversion and panicked
// the whole multi-tenant service. The server must instead answer with a
// protocol error, count a session error, and keep serving honest sessions.
func TestServiceRejectsMaliciousCommitRequest(t *testing.T) {
	g, err := elgamal.GenerateGroup(field.F128().Modulus(), 320, prg.NewFromSeed([]byte("mal-g"), 0))
	if err != nil {
		t.Fatal(err)
	}
	hello := Hello{Source: sessionSrc, Backends: zaatarOnly, RhoLin: 1, Rho: 1}
	prog, err := compiler.Compile(hello.Field(), hello.Source)
	if err != nil {
		t.Fatal(err)
	}
	cfg := hello.Config(1, []byte("mal-seed"), pcp.BackendZaatar)
	cfg.Group = g
	ver, err := vc.NewVerifier(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	req := ver.Setup()
	req.EncR1[0].A = big.NewInt(0)

	svc, reg := testService(ServiceOptions{Workers: 2})
	client, errCh := servicePipe(svc)
	cc := newTimedCodec(client, 5*time.Second)
	if err := cc.send(wireHello(hello)); err != nil {
		t.Fatal(err)
	}
	var ack HelloAck
	if err := cc.recv(&ack); err != nil || ack.Err != "" {
		t.Fatalf("hello failed: %v %q", err, ack.Err)
	}
	if err := cc.send(BatchMsg{Req: req, Instances: instances(4)}); err != nil {
		t.Fatal(err)
	}
	var cms CommitmentsMsg
	if err := cc.recv(&cms); err != nil {
		t.Fatalf("server dropped the connection instead of answering: %v", err)
	}
	if cms.Err == "" {
		t.Fatal("server accepted a ciphertext component ≡ 0 mod P")
	}
	client.Close()
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("server reported success for a malicious session")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server goroutine never returned")
	}
	if got := reg.Counter(MetricSessionErrors).Value(); got != 1 {
		t.Fatalf("%s = %d, want 1", MetricSessionErrors, got)
	}

	// The same service still runs an honest committed session end to end.
	client2, errCh2 := servicePipe(svc)
	sess, err := openSession(context.Background(), client2, hello, clientOpts{Seed: []byte("ok"), Group: g})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.RunBatch(context.Background(), instances(5))
	if err != nil {
		t.Fatal(err)
	}
	checkBatch(t, res, []int64{5})
	sess.Close()
	if err := <-errCh2; err != nil {
		t.Fatalf("honest follow-up session: %v", err)
	}
}

// TestDistributedLateLegActivation keeps a second prover's Conn idle
// through the first shard and activates it on the second, under a
// reseeded verifier: its first BatchMsg arrives after the other
// connection's, and must carry its own commit request like every batch.
func TestDistributedLateLegActivation(t *testing.T) {
	svc, reg := testService(ServiceOptions{Workers: 2})
	c1, errCh1 := servicePipe(svc)
	c2, errCh2 := servicePipe(svc)
	hello := Hello{Source: sessionSrc, Backends: zaatarOnly, RhoLin: 1, Rho: 1, NoCommitment: true}
	ctx := context.Background()
	stamped, err := hello.Stamp()
	if err != nil {
		t.Fatal(err)
	}
	conns := make([]*Conn, 2)
	for i, c := range []net.Conn{c1, c2} {
		if conns[i], err = Open(ctx, c, stamped, 0); err != nil {
			t.Fatal(err)
		}
	}
	v := newVerifier(t, hello, []byte("ll"))
	checkBatch(t, proveShard(t, conns[0], v, instances(5)), []int64{5})
	if err := v.Reseed(ctx, []byte("ll-2")); err != nil {
		t.Fatal(err)
	}
	checkBatch(t, proveShard(t, conns[1], v, instances(1, 2, 3)), []int64{1, 2, 3})
	for _, c := range conns {
		c.Close()
	}
	if err := <-errCh1; err != nil {
		t.Fatalf("leg 1 server: %v", err)
	}
	if err := <-errCh2; err != nil {
		t.Fatalf("leg 2 server: %v", err)
	}
	if got := reg.Counter(MetricSessionErrors).Value(); got != 0 {
		t.Fatalf("session errors = %d, want 0", got)
	}
}

// TestBatchWithoutCommitRequestRefused: every batch must carry its own
// commit request. A batch after the first without one — what a client
// reusing the previous batch's key would send — is refused in the commit
// phase instead of being served under the exposed key.
func TestBatchWithoutCommitRequestRefused(t *testing.T) {
	svc, reg := testService(ServiceOptions{Workers: 1})
	client, errCh := servicePipe(svc)
	hello := Hello{Source: sessionSrc, Backends: zaatarOnly, RhoLin: 1, Rho: 1, NoCommitment: true}
	prog, err := compiler.Compile(hello.Field(), hello.Source)
	if err != nil {
		t.Fatal(err)
	}
	v, err := vc.NewVerifier(prog, hello.Config(1, []byte("nr"), pcp.BackendZaatar))
	if err != nil {
		t.Fatal(err)
	}
	cc := newTimedCodec(client, 5*time.Second)
	if err := cc.send(wireHello(hello)); err != nil {
		t.Fatal(err)
	}
	var ack HelloAck
	if err := cc.recv(&ack); err != nil || ack.Err != "" {
		t.Fatalf("hello failed: %v %q", err, ack.Err)
	}
	// Batch 0, honest and complete.
	if err := cc.send(BatchMsg{Req: v.Setup(), Instances: instances(4)}); err != nil {
		t.Fatal(err)
	}
	var cms CommitmentsMsg
	if err := cc.recv(&cms); err != nil || cms.Err != "" {
		t.Fatalf("batch 0 commit: %v %q", err, cms.Err)
	}
	dreq, err := v.Decommit()
	if err != nil {
		t.Fatal(err)
	}
	if err := cc.send(DecommitMsg{Req: dreq}); err != nil {
		t.Fatal(err)
	}
	var resp ResponsesMsg
	if err := cc.recv(&resp); err != nil || resp.Err != "" {
		t.Fatalf("batch 0 respond: %v %q", err, resp.Err)
	}
	// Batch 1 with no commit request.
	if err := cc.send(BatchMsg{Instances: instances(5)}); err != nil {
		t.Fatal(err)
	}
	cms = CommitmentsMsg{}
	if err := cc.recv(&cms); err != nil {
		t.Fatalf("server dropped the connection instead of refusing: %v", err)
	}
	if cms.Err == "" || len(cms.Items) != 0 {
		t.Fatalf("batch without a commit request served: %q, %d commitments", cms.Err, len(cms.Items))
	}
	client.Close()
	if err := <-errCh; err == nil {
		t.Fatal("server reported success for a batch without a commit request")
	}
	if got := reg.CounterVec(MetricServedBatches, LabelBackend, LabelProgramHash).Total(); got != 1 {
		t.Fatalf("batches = %d, want 1", got)
	}
}

// TestIdleTimeoutReapsConnection parks a keep-alive connection after one
// batch: the server must reap it at IdleTimeout as a clean end (nil error,
// transport.idle.closed), not a session failure.
func TestIdleTimeoutReapsConnection(t *testing.T) {
	svc, reg := testService(ServiceOptions{Workers: 1, IdleTimeout: 200 * time.Millisecond})
	client, errCh := servicePipe(svc)
	hello := Hello{Source: sessionSrc, Backends: zaatarOnly, RhoLin: 1, Rho: 1, NoCommitment: true}
	sess, err := openSession(context.Background(), client, hello, clientOpts{Seed: []byte("id")})
	if err != nil {
		t.Fatal(err)
	}
	if res, err := sess.RunBatch(context.Background(), instances(7)); err != nil || !res.AllAccepted() {
		t.Fatalf("batch: %v %v", err, res)
	}
	// Park: no Close frame, no hangup — only the idle deadline can end the
	// server side.
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatalf("server: %v, want clean idle reap", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("idle connection was never reaped")
	}
	if got := reg.Counter(MetricIdleClosed).Value(); got != 1 {
		t.Fatalf("idle.closed = %d, want 1", got)
	}
	if got := reg.Counter(MetricSessionErrors).Value(); got != 0 {
		t.Fatalf("session errors = %d, want 0 (idle reap is clean)", got)
	}
	_ = sess.Close()
}

// TestMaxConnsRefusesExcess caps Serve at one open connection: with an idle
// keep-alive session parked on it, a second dial must be refused at accept
// (counted in transport.conns.rejected) instead of pinning another
// goroutine.
func TestMaxConnsRefusesExcess(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	svc, reg := testService(ServiceOptions{Workers: 1, MaxConns: 1})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- svc.Serve(ctx, ln) }()

	conn1, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	hello := Hello{Source: sessionSrc, Backends: zaatarOnly, RhoLin: 1, Rho: 1, NoCommitment: true}
	sess, err := openSession(context.Background(), conn1, hello, clientOpts{Seed: []byte("mc")})
	if err != nil {
		t.Fatal(err)
	}
	// The first connection is fully established (the ack arrived), so the
	// accept loop has accounted for it; a second connection is over the cap.
	conn2, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := openSession(context.Background(), conn2, hello, clientOpts{}); err == nil {
		t.Fatal("session over the MaxConns cap succeeded")
	}
	conn2.Close()
	if got := reg.Counter(MetricConnsRejected).Value(); got != 1 {
		t.Fatalf("conns.rejected = %d, want 1", got)
	}
	sess.Close()
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not drain after cancel")
	}
	if got := int64(gaugeValue(t, reg, MetricConnsOpen)); got != 0 {
		t.Fatalf("conns.open = %d after drain, want 0", got)
	}
}

// TestMidFrameHangupIsError kills the connection inside a gob frame: unlike
// a hangup at a message boundary (clean keep-alive end), a peer dying
// mid-message believed it was mid-protocol, so the server must report a
// session error.
func TestMidFrameHangupIsError(t *testing.T) {
	svc, reg := testService(ServiceOptions{Workers: 1})
	client, errCh := servicePipe(svc)
	hello := Hello{Source: sessionSrc, Backends: zaatarOnly, RhoLin: 1, Rho: 1, NoCommitment: true}
	sess, err := openSession(context.Background(), client, hello, clientOpts{Seed: []byte("mf")})
	if err != nil {
		t.Fatal(err)
	}
	if res, err := sess.RunBatch(context.Background(), instances(6)); err != nil || !res.AllAccepted() {
		t.Fatalf("batch: %v %v", err, res)
	}
	// A gob frame claiming 5 payload bytes, truncated after 2: the server's
	// next read ends in io.ErrUnexpectedEOF, not a boundary io.EOF.
	if _, err := client.Write([]byte{0x05, 0x01, 0x02}); err != nil {
		t.Fatal(err)
	}
	client.Close()
	if err := <-errCh; err == nil {
		t.Fatal("mid-frame hangup treated as clean session end")
	}
	if got := reg.Counter(MetricSessionErrors).Value(); got != 1 {
		t.Fatalf("session errors = %d, want 1", got)
	}
}

// TestV1PeerSingleBatch: a v1 peer, which opened a connection for a single
// batch, is refused at the hello with the version this build speaks, and
// the server serves it no batch.
func TestV1PeerSingleBatch(t *testing.T) {
	svc, reg := testService(ServiceOptions{Workers: 1})
	client, errCh := servicePipe(svc)
	defer client.Close()
	cc := newTimedCodec(client, 5*time.Second)
	hello := Hello{Source: sessionSrc, Backends: zaatarOnly, RhoLin: 1, Rho: 1, NoCommitment: true, Version: 1}
	if err := cc.send(hello); err != nil {
		t.Fatal(err)
	}
	var ack HelloAck
	if err := cc.recv(&ack); err != nil {
		t.Fatal(err)
	}
	if ack.Err == "" || ack.Version != MaxProtocolVersion {
		t.Fatalf("ack %+v, want an error ack stamped v%d", ack, MaxProtocolVersion)
	}
	var vErr *ProtocolVersionError
	if err := <-errCh; !errors.As(err, &vErr) || vErr.Version != 1 || vErr.Max != MaxProtocolVersion {
		t.Fatalf("server err = %v, want *ProtocolVersionError{1, %d}", err, MaxProtocolVersion)
	}
	if got := reg.CounterVec(MetricServedBatches, LabelBackend, LabelProgramHash).Total(); got != 0 {
		t.Fatalf("batches = %d, want 0", got)
	}
}

// legacyHello mirrors Hello before versioning and backend negotiation: the
// backend was a Ginger bool.
type legacyHello struct {
	Source       string
	Field220     bool
	Ginger       bool
	RhoLin, Rho  int
	NoCommitment bool
}

// TestLegacyGobClient drives the service with a verbatim pre-versioning
// client: its gob hello has no Version, Backends or trace fields. Gob
// decodes it with a zero Version, and the server refuses it with the
// version it speaks in an error ack the old client can still decode.
func TestLegacyGobClient(t *testing.T) {
	svc, reg := testService(ServiceOptions{Workers: 1})
	client, errCh := servicePipe(svc)
	defer client.Close()
	enc, dec := gob.NewEncoder(client), gob.NewDecoder(client)
	if err := enc.Encode(legacyHello{Source: sessionSrc, RhoLin: 2, Rho: 2, NoCommitment: true}); err != nil {
		t.Fatal(err)
	}
	var ack struct{ Err string } // the ack as the legacy client decoded it
	if err := dec.Decode(&ack); err != nil {
		t.Fatal(err)
	}
	if ack.Err == "" {
		t.Fatal("server accepted a pre-versioning hello")
	}
	var vErr *ProtocolVersionError
	if err := <-errCh; !errors.As(err, &vErr) || vErr.Version != 0 || vErr.Max != MaxProtocolVersion {
		t.Fatalf("server err = %v, want *ProtocolVersionError{0, %d}", err, MaxProtocolVersion)
	}
	if got := reg.Counter(MetricCacheMisses).Value(); got != 0 {
		t.Fatalf("refused hello reached the program cache (%d misses)", got)
	}
}

// ackingServer reads one hello and answers it with ack, whatever it says —
// a stand-in for a prover from another build.
func ackingServer(conn net.Conn, ack HelloAck) error {
	defer conn.Close()
	dec, enc := gob.NewDecoder(conn), gob.NewEncoder(conn)
	var h Hello
	if err := dec.Decode(&h); err != nil {
		return err
	}
	return enc.Encode(ack)
}

// TestV2ClientLegacyServer: the client refuses an ack stamped with any
// version but its own — v2 keep-alive and pre-versioning servers included —
// and an otherwise successful ack that picks no backend.
func TestV2ClientLegacyServer(t *testing.T) {
	shape := HelloAck{NumInputs: 1, NumOutputs: 2}
	for _, c := range []struct {
		name    string
		version int
		backend string
	}{
		{"pre-versioning", 0, ""},
		{"v2", 2, pcp.BackendZaatar},
		{"v4", 4, pcp.BackendZaatar},
		{"no backend", MaxProtocolVersion, ""},
	} {
		t.Run(c.name, func(t *testing.T) {
			client, server := net.Pipe()
			defer client.Close()
			ack := shape
			ack.Version, ack.Backend = c.version, c.backend
			go func() { _ = ackingServer(server, ack) }()
			hello := Hello{Source: sessionSrc, Backends: zaatarOnly, RhoLin: 1, Rho: 1, NoCommitment: true}
			_, err := openSession(context.Background(), client, hello, clientOpts{})
			var vErr *ProtocolVersionError
			if c.version != MaxProtocolVersion {
				if !errors.As(err, &vErr) || vErr.Version != c.version || vErr.Max != MaxProtocolVersion {
					t.Fatalf("err = %v, want *ProtocolVersionError{%d, %d}", err, c.version, MaxProtocolVersion)
				}
			} else if !errors.Is(err, ErrNoCommonBackend) {
				t.Fatalf("err = %v, want ErrNoCommonBackend", err)
			}
		})
	}
}

// TestProtocolVersionErrorTyped covers the typed version refusal on both
// ends: locally via errors.As for every version but the one spoken, and
// over the wire for a newer peer, where the server reports it in an error
// ack stamped with its own version and survives.
func TestProtocolVersionErrorTyped(t *testing.T) {
	var vErr *ProtocolVersionError
	for _, v := range []int{0, 1, 2, 4} {
		h := Hello{Source: sessionSrc, Backends: zaatarOnly, Version: v}
		if err := h.validate(0); !errors.As(err, &vErr) {
			t.Fatalf("validate v%d: %v, want *ProtocolVersionError", v, err)
		} else if vErr.Version != v || vErr.Max != MaxProtocolVersion {
			t.Fatalf("version error: %+v", vErr)
		}
	}

	svc, _ := testService(ServiceOptions{Workers: 1})
	client, errCh := servicePipe(svc)
	defer client.Close()
	cc := newTimedCodec(client, 5*time.Second)
	if err := cc.send(Hello{Source: sessionSrc, Backends: zaatarOnly, Version: 4}); err != nil {
		t.Fatal(err)
	}
	var ack HelloAck
	if err := cc.recv(&ack); err != nil {
		t.Fatal(err)
	}
	if ack.Err == "" || ack.Version != MaxProtocolVersion {
		t.Fatalf("ack %+v, want an error ack stamped v%d", ack, MaxProtocolVersion)
	}
	serr := <-errCh
	if !errors.As(serr, &vErr) || vErr.Version != 4 || vErr.Max != MaxProtocolVersion {
		t.Fatalf("server error: %v, want *ProtocolVersionError{4, %d}", serr, MaxProtocolVersion)
	}
	// The same service still opens a v3 session.
	client2, errCh2 := servicePipe(svc)
	if _, err := oneBatch(context.Background(), client2, Hello{Source: sessionSrc, Backends: zaatarOnly, RhoLin: 1, Rho: 1, NoCommitment: true},
		clientOpts{}, instances(3)); err != nil {
		t.Fatal(err)
	}
	if err := <-errCh2; err != nil {
		t.Fatalf("v3 session after a refusal: %v", err)
	}
}

// TestCacheHitSkipsCompile runs two sessions for the same program: the
// second must be a cache hit, observable both in the counters and — the
// contract the bench leans on — by the absence of a prover.compile span in
// its trace.
func TestCacheHitSkipsCompile(t *testing.T) {
	svc, reg := testService(ServiceOptions{Workers: 1})
	hello := Hello{Source: sessionSrc, Backends: zaatarOnly, RhoLin: 1, Rho: 1, NoCommitment: true}
	var traces [][]trace.Record
	for i := 0; i < 2; i++ {
		tc := trace.New(trace.NewRecorder(4096), "verifier")
		ctx := trace.NewContext(context.Background(), tc)
		client, errCh := servicePipe(svc)
		res, err := oneBatch(ctx, client, hello, clientOpts{Seed: []byte{byte(i)}}, instances(4))
		client.Close()
		if serr := <-errCh; serr != nil {
			t.Fatalf("session %d server: %v", i, serr)
		}
		if err != nil || !res.AllAccepted() {
			t.Fatalf("session %d: %v %v", i, err, res)
		}
		traces = append(traces, tc.Recorder().Snapshot())
	}
	if n := len(byName(traces[0], "prover.compile")); n != 1 {
		t.Fatalf("first session: %d prover.compile spans, want 1 (miss)", n)
	}
	if n := len(byName(traces[1], "prover.compile")); n != 0 {
		t.Fatalf("second session: %d prover.compile spans, want 0 (hit)", n)
	}
	if hits, misses := reg.Counter(MetricCacheHits).Value(), reg.Counter(MetricCacheMisses).Value(); hits != 1 || misses != 1 {
		t.Fatalf("cache hits=%d misses=%d, want 1/1", hits, misses)
	}
}

// cacheTestSrc derives a distinct tiny program per index, so tests can
// populate the LRU with controlled distinct keys.
func cacheTestSrc(i int) string {
	return fmt.Sprintf("input x : int32; output y : int32; y = x + %d;", i)
}

// TestCacheEvictionConcurrent hammers a 2-entry cache with 8 concurrent
// sessions over 4 distinct programs: every session must still verify
// (eviction never breaks an in-flight session, since entries are shared by
// pointer), and the LRU must have evicted and stayed within bounds.
func TestCacheEvictionConcurrent(t *testing.T) {
	svc, reg := testService(ServiceOptions{Workers: 2, MaxSessions: 4, CacheSize: 2})
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			prog := i % 4
			hello := Hello{Source: cacheTestSrc(prog), Backends: zaatarOnly, RhoLin: 1, Rho: 1, NoCommitment: true}
			client, errCh := servicePipe(svc)
			res, err := oneBatch(context.Background(), client, hello, clientOpts{Seed: []byte{byte(i)}}, instances(int64(i)))
			client.Close()
			if serr := <-errCh; serr != nil {
				errs <- fmt.Errorf("session %d server: %w", i, serr)
				return
			}
			if err != nil {
				errs <- fmt.Errorf("session %d: %w", i, err)
				return
			}
			if !res.AllAccepted() {
				errs <- fmt.Errorf("session %d rejected: %v", i, res.Reasons)
				return
			}
			if got := res.Outputs[0][0].Int64(); got != int64(i)+int64(prog) {
				errs <- fmt.Errorf("session %d output %d, want %d", i, got, int64(i)+int64(prog))
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := int64(gaugeValue(t, reg, MetricCacheEntries)); got > 2 {
		t.Fatalf("cache entries = %d, want ≤ 2", got)
	}
	if reg.Counter(MetricCacheEvictions).Value() == 0 {
		t.Fatal("4 programs through a 2-entry cache must evict")
	}
}

// TestAdmissionConcurrentSessions pushes 8 concurrent sessions for one
// program through a 3-slot admission semaphore: all succeed, the
// singleflight cache compiles once, and the active gauge returns to zero.
func TestAdmissionConcurrentSessions(t *testing.T) {
	svc, reg := testService(ServiceOptions{Workers: 4, MaxSessions: 3})
	hello := Hello{Source: sessionSrc, Backends: zaatarOnly, RhoLin: 1, Rho: 1, NoCommitment: true}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			client, errCh := servicePipe(svc)
			res, err := oneBatch(context.Background(), client, hello, clientOpts{Seed: []byte{byte(i)}}, instances(int64(i), int64(i)+1))
			client.Close()
			if serr := <-errCh; serr != nil {
				errs <- fmt.Errorf("session %d server: %w", i, serr)
				return
			}
			if err != nil {
				errs <- fmt.Errorf("session %d: %w", i, err)
				return
			}
			if !res.AllAccepted() {
				errs <- fmt.Errorf("session %d rejected: %v", i, res.Reasons)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := reg.CounterVec(MetricSessions, LabelBackend).Total(); got != 8 {
		t.Fatalf("sessions = %d, want 8", got)
	}
	if got := reg.Counter(MetricCacheMisses).Value(); got != 1 {
		t.Fatalf("cache misses = %d, want 1 (singleflight)", got)
	}
	if got := int64(gaugeValue(t, reg, MetricAdmissionActive)); got != 0 {
		t.Fatalf("admission.active = %d after drain, want 0", got)
	}
}

// TestServeDrain runs the accept loop on a real listener, completes a
// session, then cancels: Serve must close the listener and return nil.
func TestServeDrain(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	svc, _ := testService(ServiceOptions{Workers: 1})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- svc.Serve(ctx, ln) }()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	hello := Hello{Source: sessionSrc, Backends: zaatarOnly, RhoLin: 1, Rho: 1, NoCommitment: true}
	res, err := oneBatch(context.Background(), conn, hello, clientOpts{Seed: []byte("sv")}, instances(12))
	conn.Close()
	if err != nil || !res.AllAccepted() {
		t.Fatalf("session over Serve: %v %v", err, res)
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not drain after cancel")
	}
}

// TestUncappedConnsCount runs Serve with no MaxConns cap: every accepted
// connection is counted, so once N connections have closed and Serve has
// drained, the count behind the transport.conns.open gauge is back at 0
// rather than −N.
func TestUncappedConnsCount(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	svc, reg := testService(ServiceOptions{Workers: 1, MaxConns: -1})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- svc.Serve(ctx, ln) }()
	const n = 3
	for i := 0; i < n; i++ {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		conn.Close()
	}
	// Serve accepts serially, so a connection dialed after the n closed
	// ones has been accepted only after all of them were.
	hello := Hello{Source: sessionSrc, Backends: zaatarOnly, RhoLin: 1, Rho: 1, NoCommitment: true}
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	sess, err := openSession(context.Background(), conn, hello, clientOpts{})
	if err != nil {
		t.Fatal(err)
	}
	sess.Close()
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not drain after cancel")
	}
	if got := svc.conns.Load(); got != 0 {
		t.Fatalf("conns = %d after %d connections closed, want 0", got, n+1)
	}
	if got := gaugeValue(t, reg, MetricConnsOpen); got != 0 {
		t.Fatalf("conns.open = %v after drain, want 0", got)
	}
}

// TestCloseFrameBeforeAnyBatch opens a session and closes it immediately:
// the goodbye frame must end the server side cleanly with zero batches.
func TestCloseFrameBeforeAnyBatch(t *testing.T) {
	svc, reg := testService(ServiceOptions{Workers: 1})
	client, errCh := servicePipe(svc)
	hello := Hello{Source: sessionSrc, Backends: zaatarOnly, RhoLin: 1, Rho: 1, NoCommitment: true}
	sess, err := openSession(context.Background(), client, hello, clientOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-errCh; err != nil {
		t.Fatalf("server: %v", err)
	}
	if got := reg.CounterVec(MetricServedBatches, LabelBackend, LabelProgramHash).Total(); got != 0 {
		t.Fatalf("batches = %d, want 0", got)
	}
	if _, err := sess.RunBatch(context.Background(), instances(1)); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("err = %v, want ErrSessionClosed", err)
	}
}

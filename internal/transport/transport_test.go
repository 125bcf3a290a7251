package transport

import (
	"context"
	"errors"
	"math/big"
	"net"
	"strings"
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

const sessionSrc = `
input x : int32;
output y : int32;
output sq : int64;
y = x - 3;
sq = x * x;
`

// zaatarOnly is the backend offer of most test hellos.
var zaatarOnly = []string{pcp.BackendZaatar}

// serve runs a fresh Service (with its own registry unless opts names one)
// on the server end of a pipe.
func serve(ctx context.Context, server net.Conn, opts ServiceOptions) error {
	svc, _ := testService(opts)
	return svc.ServeConn(ctx, server)
}

// clientOpts configures the test verifier built around a Conn.
type clientOpts struct {
	Seed      []byte
	Group     *elgamal.Group
	Workers   int
	IOTimeout time.Duration
	Obs       *obs.Registry
}

// session is a test's verifier side over one Conn: a transport.session
// trace root, the hello exchanged once, and each batch driven by vc.Drive
// under a verifier of its own, seeded vc.DeriveSeed(Seed, batch index).
type session struct {
	*Conn
	prog    *compiler.Program
	cfg     vc.Config
	workers int
	tc      *trace.Ctx
	root    *trace.Span
	batches int
}

// openSession stamps and validates hello, compiles it (so a bad program
// fails before conn is touched) and opens conn under the session's trace
// root.
func openSession(ctx context.Context, conn net.Conn, hello Hello, opts clientOpts) (*session, error) {
	hello, err := hello.Stamp()
	if err != nil {
		return nil, err
	}
	prog, err := compiler.Compile(hello.Field(), hello.Source)
	if err != nil {
		return nil, err
	}
	root, ctx := trace.Child(ctx, "transport.session")
	s := &session{prog: prog, workers: opts.Workers, tc: trace.FromContext(ctx), root: root}
	hello.Trace, hello.TraceParent = s.tc.TraceID(), s.tc.SpanID()
	if s.Conn, err = Open(ctx, conn, hello, opts.IOTimeout); err != nil {
		root.End()
		return nil, err
	}
	s.cfg = hello.Config(0, opts.Seed, s.Backend())
	s.cfg.Group, s.cfg.Obs = opts.Group, opts.Obs
	return s, nil
}

func (s *session) Backend() string { return s.Ack().Backend }

// RunBatch drives one batch over the Conn under a fresh verifier.
func (s *session) RunBatch(ctx context.Context, batch [][]*big.Int) (*SessionResult, error) {
	ctx = trace.NewContext(ctx, s.tc)
	cfg := s.cfg
	cfg.Seed = vc.DeriveSeed(cfg.Seed, s.batches)
	s.batches++
	v, err := vc.NewVerifierPre(ctx, s.prog, cfg, nil)
	if err != nil {
		return nil, err
	}
	return vc.Drive(ctx, v, s.Conn, batch, s.workers)
}

func (s *session) Close() error {
	s.Conn.Close()
	s.root.End()
	return nil
}

// oneBatch opens a session over conn, runs one batch and closes the
// session.
func oneBatch(ctx context.Context, conn net.Conn, hello Hello, opts clientOpts, batch [][]*big.Int) (*SessionResult, error) {
	sess, err := openSession(ctx, conn, hello, opts)
	if err != nil {
		return nil, err
	}
	defer sess.Close()
	return sess.RunBatch(ctx, batch)
}

// wireHello stamps the fields Hello.Stamp would, for tests that write a
// hello onto the wire by hand.
func wireHello(h Hello) Hello {
	h.Version = MaxProtocolVersion
	return h
}

func runPipeSession(t *testing.T, hello Hello, opts clientOpts, batch [][]*big.Int) (*SessionResult, error) {
	t.Helper()
	client, server := net.Pipe()
	errCh := make(chan error, 1)
	go func() { errCh <- serve(context.Background(), server, ServiceOptions{Workers: 2}) }()
	res, err := oneBatch(context.Background(), client, hello, opts, batch)
	client.Close()
	<-errCh
	return res, err
}

func TestSessionNoCrypto(t *testing.T) {
	hello := Hello{Source: sessionSrc, Backends: zaatarOnly, RhoLin: 2, Rho: 2, NoCommitment: true}
	batch := [][]*big.Int{{big.NewInt(10)}, {big.NewInt(-4)}}
	res, err := runPipeSession(t, hello, clientOpts{Seed: []byte("t")}, batch)
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllAccepted() {
		t.Fatalf("rejected: %v", res.Reasons)
	}
	if res.Outputs[0][0].Int64() != 7 || res.Outputs[0][1].Int64() != 100 {
		t.Fatalf("outputs: %v", res.Outputs[0])
	}
	if res.Outputs[1][0].Int64() != -7 || res.Outputs[1][1].Int64() != 16 {
		t.Fatalf("outputs: %v", res.Outputs[1])
	}
}

func TestSessionWithCrypto(t *testing.T) {
	g, err := elgamal.GenerateGroup(field.F128().Modulus(), 320, prg.NewFromSeed([]byte("tg"), 0))
	if err != nil {
		t.Fatal(err)
	}
	hello := Hello{Source: sessionSrc, Backends: zaatarOnly, RhoLin: 1, Rho: 1}
	batch := [][]*big.Int{{big.NewInt(5)}}
	res, err := runPipeSession(t, hello, clientOpts{Seed: []byte("c"), Group: g}, batch)
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllAccepted() {
		t.Fatalf("rejected: %v", res.Reasons)
	}
	if res.Outputs[0][0].Int64() != 2 || res.Outputs[0][1].Int64() != 25 {
		t.Fatalf("outputs: %v", res.Outputs[0])
	}
}

func TestSessionGinger(t *testing.T) {
	hello := Hello{Source: sessionSrc, Backends: []string{pcp.BackendGinger}, RhoLin: 1, Rho: 1, NoCommitment: true}
	res, err := runPipeSession(t, hello, clientOpts{Seed: []byte("g")}, [][]*big.Int{{big.NewInt(6)}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllAccepted() || res.Outputs[0][1].Int64() != 36 {
		t.Fatalf("ginger session failed: %v %v", res.Reasons, res.Outputs)
	}
}

func TestSessionParallelVerify(t *testing.T) {
	hello := Hello{Source: sessionSrc, Backends: zaatarOnly, RhoLin: 2, Rho: 2, NoCommitment: true}
	batch := make([][]*big.Int, 6)
	for i := range batch {
		batch[i] = []*big.Int{big.NewInt(int64(i))}
	}
	res, err := runPipeSession(t, hello, clientOpts{Seed: []byte("pv"), Workers: 4}, batch)
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllAccepted() {
		t.Fatalf("rejected: %v", res.Reasons)
	}
	for i := range batch {
		if res.Outputs[i][0].Int64() != int64(i)-3 {
			t.Fatalf("instance %d output %v", i, res.Outputs[i])
		}
	}
}

func TestSessionBadProgram(t *testing.T) {
	hello := Hello{Source: "not a program", Backends: zaatarOnly, RhoLin: 1, Rho: 1, NoCommitment: true}
	// The client compiles the program itself before dialing, so it fails
	// locally without touching the wire.
	if _, err := openSession(context.Background(), nil, hello, clientOpts{}); err == nil {
		t.Fatal("bad program accepted by client")
	}
	// A server fed the same hello raw reports the compile failure in its ack
	// and survives.
	client, server := net.Pipe()
	serverErr := make(chan error, 1)
	go func() { serverErr <- serve(context.Background(), server, ServiceOptions{}) }()
	cc := newTimedCodec(client, 5*time.Second)
	if err := cc.send(wireHello(hello)); err != nil {
		t.Fatal(err)
	}
	var ack HelloAck
	if err := cc.recv(&ack); err != nil {
		t.Fatal(err)
	}
	client.Close()
	if ack.Err == "" {
		t.Fatal("server compiled a bad program")
	}
	if err := <-serverErr; err == nil {
		t.Fatal("server reported success for a bad program")
	}
}

func TestSessionOversizedBatch(t *testing.T) {
	hello := Hello{Source: sessionSrc, Backends: zaatarOnly, RhoLin: 1, Rho: 1, NoCommitment: true}
	client, server := net.Pipe()
	serverErr := make(chan error, 1)
	go func() { serverErr <- serve(context.Background(), server, ServiceOptions{MaxBatch: 1}) }()
	batch := [][]*big.Int{{big.NewInt(1)}, {big.NewInt(2)}}
	_, err := oneBatch(context.Background(), client, hello, clientOpts{Seed: []byte("x")}, batch)
	client.Close()
	// The client sees the rejection as a typed commit-phase failure naming
	// the batch bound; the server reports the sentinel and survives.
	var remote *RemoteError
	if !errors.As(err, &remote) || remote.Phase != "commit" {
		t.Fatalf("client err = %v, want *RemoteError in commit phase", err)
	}
	if !strings.Contains(remote.Msg, ErrBatchTooLarge.Error()) {
		t.Fatalf("remote msg %q does not name the batch bound", remote.Msg)
	}
	if err := <-serverErr; !errors.Is(err, ErrBatchTooLarge) {
		t.Fatalf("server err = %v, want ErrBatchTooLarge", err)
	}
}

func TestSessionMalformedHello(t *testing.T) {
	cases := []struct {
		name  string
		hello Hello
	}{
		{"empty source", Hello{Backends: zaatarOnly, RhoLin: 1, Rho: 1, NoCommitment: true}},
		{"negative repetitions", Hello{Source: sessionSrc, Backends: zaatarOnly, RhoLin: -1, Rho: 1, NoCommitment: true}},
		{"huge repetitions", Hello{Source: sessionSrc, Backends: zaatarOnly, RhoLin: 1, Rho: maxRepetitions + 1, NoCommitment: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Client-side validation rejects before anything hits the wire.
			if _, err := openSession(context.Background(), nil, tc.hello, clientOpts{}); !errors.Is(err, ErrMalformedHello) {
				t.Fatalf("client validation err = %v, want ErrMalformedHello", err)
			}
			// A server receiving it raw reports the sentinel and survives.
			client, server := net.Pipe()
			serverErr := make(chan error, 1)
			go func() { serverErr <- serve(context.Background(), server, ServiceOptions{}) }()
			cc := newTimedCodec(client, time.Second)
			if err := cc.send(wireHello(tc.hello)); err != nil {
				t.Fatal(err)
			}
			var ack HelloAck
			if err := cc.recv(&ack); err != nil {
				t.Fatal(err)
			}
			client.Close()
			if ack.Err == "" {
				t.Fatal("server accepted a malformed hello")
			}
			if err := <-serverErr; !errors.Is(err, ErrMalformedHello) {
				t.Fatalf("server err = %v, want ErrMalformedHello", err)
			}
		})
	}
}

// A client that vanishes mid-session must not wedge or panic the server: the
// session goroutine returns an error and the server survives for the next
// connection.
func TestServerSurvivesMidSessionDisconnect(t *testing.T) {
	hello := Hello{Source: sessionSrc, Backends: zaatarOnly, RhoLin: 1, Rho: 1, NoCommitment: true}
	client, server := net.Pipe()
	serverErr := make(chan error, 1)
	reg := obs.NewRegistry()
	go func() { serverErr <- serve(context.Background(), server, ServiceOptions{Obs: reg}) }()

	// Speak the first half of the protocol by hand, then hang up after
	// receiving the commitments (the server is now blocked on the decommit).
	cc := newTimedCodec(client, 5*time.Second)
	if err := cc.send(wireHello(hello)); err != nil {
		t.Fatal(err)
	}
	var ack HelloAck
	if err := cc.recv(&ack); err != nil || ack.Err != "" {
		t.Fatalf("hello failed: %v %q", err, ack.Err)
	}
	if err := cc.send(BatchMsg{Req: &vc.CommitRequest{}, Instances: [][]*big.Int{{big.NewInt(4)}}}); err != nil {
		t.Fatal(err)
	}
	var cms CommitmentsMsg
	if err := cc.recv(&cms); err != nil || cms.Err != "" {
		t.Fatalf("commit failed: %v %q", err, cms.Err)
	}
	client.Close()

	select {
	case err := <-serverErr:
		if err == nil {
			t.Fatal("server reported success for a half-finished session")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server goroutine never returned after client disconnect")
	}
	if got := reg.Counter(MetricSessionErrors).Value(); got != 1 {
		t.Fatalf("%s = %d, want 1", MetricSessionErrors, got)
	}
	// The server is still able to run a fresh, complete session.
	res, err := runPipeSession(t, hello, clientOpts{Seed: []byte("again")}, [][]*big.Int{{big.NewInt(9)}})
	if err != nil || !res.AllAccepted() {
		t.Fatalf("follow-up session failed: %v", err)
	}
}

// A decommit frame without its request is malformed peer input: the
// service answers it with a respond-phase error instead of dereferencing
// the missing request.
func TestServerRejectsEmptyDecommit(t *testing.T) {
	hello := Hello{Source: sessionSrc, Backends: zaatarOnly, RhoLin: 1, Rho: 1, NoCommitment: true}
	client, server := net.Pipe()
	defer client.Close()
	serverErr := make(chan error, 1)
	go func() { serverErr <- serve(context.Background(), server, ServiceOptions{}) }()

	cc := newTimedCodec(client, 5*time.Second)
	if err := cc.send(wireHello(hello)); err != nil {
		t.Fatal(err)
	}
	var ack HelloAck
	if err := cc.recv(&ack); err != nil || ack.Err != "" {
		t.Fatalf("hello failed: %v %q", err, ack.Err)
	}
	if err := cc.send(BatchMsg{Req: &vc.CommitRequest{}, Instances: [][]*big.Int{{big.NewInt(4)}}}); err != nil {
		t.Fatal(err)
	}
	var cms CommitmentsMsg
	if err := cc.recv(&cms); err != nil || cms.Err != "" {
		t.Fatalf("commit failed: %v %q", err, cms.Err)
	}
	if err := cc.send(DecommitMsg{}); err != nil {
		t.Fatal(err)
	}
	var resp ResponsesMsg
	if err := cc.recv(&resp); err != nil {
		t.Fatalf("server dropped the connection instead of answering: %v", err)
	}
	if resp.Err == "" {
		t.Fatal("server answered a decommit that carried no request")
	}
	if err := <-serverErr; err == nil {
		t.Fatal("server reported success for a malformed session")
	}
}

// A stalled peer must not hold a session past the IO deadline.
func TestServerIOTimeout(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	serverErr := make(chan error, 1)
	go func() {
		serverErr <- serve(context.Background(), server, ServiceOptions{IOTimeout: 50 * time.Millisecond})
	}()
	// Send nothing: the hello read must time out.
	select {
	case err := <-serverErr:
		if err == nil {
			t.Fatal("server returned nil for a silent client")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server ignored the IO deadline")
	}
}

// Garbage bytes (not a gob stream) must fail the session, not crash it.
func TestServerSurvivesGarbage(t *testing.T) {
	client, server := net.Pipe()
	serverErr := make(chan error, 1)
	go func() { serverErr <- serve(context.Background(), server, ServiceOptions{}) }()
	go func() {
		_, _ = client.Write([]byte("\x00\xffnot gob at all\x13\x37"))
		client.Close()
	}()
	select {
	case err := <-serverErr:
		if err == nil {
			t.Fatal("server decoded garbage as a session")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server hung on garbage input")
	}
}

// Cancelling the server's context mid-session unblocks its I/O and surfaces
// ctx.Err().
func TestServeConnContextCancel(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	ctx, cancel := context.WithCancel(context.Background())
	serverErr := make(chan error, 1)
	go func() { serverErr <- serve(ctx, server, ServiceOptions{}) }()
	cancel()
	select {
	case err := <-serverErr:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled server never returned")
	}
}

// Cancelling the client's context mid-session closes its connections and
// surfaces ctx.Err().
func TestRunSessionContextCancel(t *testing.T) {
	client, server := net.Pipe()
	// No server loop: the client will block writing its hello into the pipe.
	defer server.Close()
	ctx, cancel := context.WithCancel(context.Background())
	clientErr := make(chan error, 1)
	go func() {
		hello := Hello{Source: sessionSrc, Backends: zaatarOnly, RhoLin: 1, Rho: 1, NoCommitment: true}
		_, err := oneBatch(ctx, client, hello, clientOpts{Seed: []byte("cc")}, [][]*big.Int{{big.NewInt(1)}})
		clientErr <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-clientErr:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled client never returned")
	}
}

// TestDistributedProvers: three provers, each behind its own Conn, serve
// one shard each of a batch under forks of one verifier — the per-worker
// wire link the farm drives.
func TestDistributedProvers(t *testing.T) {
	const nProvers = 3
	hello := Hello{Source: sessionSrc, Backends: zaatarOnly, RhoLin: 2, Rho: 2, NoCommitment: true}
	ctx := context.Background()
	conns := openConns(t, hello, nProvers)
	v := newVerifier(t, hello, []byte("d"))
	for leg, conn := range conns {
		fork, err := v.Fork(ctx, []byte{byte(leg)})
		if err != nil {
			t.Fatal(err)
		}
		xs := []int64{int64(leg), int64(leg) + 10}
		checkBatch(t, proveShard(t, conn, fork, instances(xs...)), xs)
	}
}

// openConns opens n Conns on hello, each to a fresh service over a pipe,
// closed at the end of the test.
func openConns(t *testing.T, hello Hello, n int) []*Conn {
	t.Helper()
	hello, err := hello.Stamp()
	if err != nil {
		t.Fatal(err)
	}
	conns := make([]*Conn, n)
	for i := range conns {
		client, server := net.Pipe()
		go func() { _ = serve(context.Background(), server, ServiceOptions{}) }()
		if conns[i], err = Open(context.Background(), client, hello, 5*time.Second); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(conns[i].Close)
	}
	return conns
}

// newVerifier builds a Zaatar verifier for hello's program.
func newVerifier(t *testing.T, hello Hello, seed []byte) *vc.Verifier {
	t.Helper()
	prog, err := compiler.Compile(hello.Field(), hello.Source)
	if err != nil {
		t.Fatal(err)
	}
	v, err := vc.NewVerifier(prog, hello.Config(0, seed, pcp.BackendZaatar))
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// proveShard runs one shard over conn under verifier v and verifies it.
func proveShard(t *testing.T, conn *Conn, v *vc.Verifier, batch [][]*big.Int) *SessionResult {
	t.Helper()
	res, err := vc.Drive(context.Background(), v, conn, batch, 1)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSessionOverTCP(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		_ = serve(context.Background(), conn, ServiceOptions{Workers: 2, IOTimeout: 30 * time.Second})
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	hello := Hello{Source: sessionSrc, Backends: zaatarOnly, RhoLin: 2, Rho: 2, NoCommitment: true}
	res, err := oneBatch(context.Background(), conn, hello, clientOpts{Seed: []byte("tcp"), IOTimeout: 30 * time.Second}, [][]*big.Int{{big.NewInt(8)}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllAccepted() || res.Outputs[0][0].Int64() != 5 {
		t.Fatalf("tcp session failed: %v %v", res.Reasons, res.Outputs)
	}
}

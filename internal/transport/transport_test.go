package transport

import (
	"context"
	"errors"
	"math/big"
	"net"
	"strings"
	"testing"
	"time"

	"zaatar/internal/elgamal"
	"zaatar/internal/field"
	"zaatar/internal/obs"
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

// oneBatch opens a session over conn, runs one batch and closes the
// session.
func oneBatch(ctx context.Context, conn net.Conn, hello Hello, opts ClientOptions, batch [][]*big.Int) (*SessionResult, error) {
	sess, err := NewSession(ctx, []net.Conn{conn}, hello, opts)
	if err != nil {
		return nil, err
	}
	defer sess.Close()
	return sess.RunBatch(ctx, batch)
}

// wireHello stamps the fields NewSession would, for tests that write a
// hello onto the wire by hand.
func wireHello(h Hello) Hello {
	h.Version = MaxProtocolVersion
	return h
}

func runPipeSession(t *testing.T, hello Hello, opts ClientOptions, batch [][]*big.Int) (*SessionResult, error) {
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
	res, err := runPipeSession(t, hello, ClientOptions{Seed: []byte("t")}, batch)
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
	res, err := runPipeSession(t, hello, ClientOptions{Seed: []byte("c"), Group: g}, batch)
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
	res, err := runPipeSession(t, hello, ClientOptions{Seed: []byte("g")}, [][]*big.Int{{big.NewInt(6)}})
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
	res, err := runPipeSession(t, hello, ClientOptions{Seed: []byte("pv"), Workers: 4}, batch)
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
	if _, err := NewSession(context.Background(), []net.Conn{nil}, hello, ClientOptions{}); err == nil {
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
	_, err := oneBatch(context.Background(), client, hello, ClientOptions{Seed: []byte("x")}, batch)
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
			if _, err := NewSession(context.Background(), []net.Conn{nil}, tc.hello, ClientOptions{}); !errors.Is(err, ErrMalformedHello) {
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
	res, err := runPipeSession(t, hello, ClientOptions{Seed: []byte("again")}, [][]*big.Int{{big.NewInt(9)}})
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
		_, err := oneBatch(ctx, client, hello, ClientOptions{Seed: []byte("cc")}, [][]*big.Int{{big.NewInt(1)}})
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

// TestDistributedProvers: a session over three provers is the farm's to
// drive. RunBatch refuses it before touching the wire, and every leg still
// serves a shard of the batch through its Leg link afterwards.
func TestDistributedProvers(t *testing.T) {
	const nProvers = 3
	conns := make([]net.Conn, nProvers)
	for i := range conns {
		client, server := net.Pipe()
		conns[i] = client
		go func() { _ = serve(context.Background(), server, ServiceOptions{}) }()
	}
	hello := Hello{Source: sessionSrc, Backends: zaatarOnly, RhoLin: 2, Rho: 2, NoCommitment: true}
	ctx := context.Background()
	sess, err := NewSession(ctx, conns, hello, ClientOptions{Seed: []byte("d")})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if _, err := sess.RunBatch(ctx, instances(1, 2, 3)); !errors.Is(err, errMultiLeg) {
		t.Fatalf("RunBatch on %d legs: err = %v, want the multi-leg refusal", nProvers, err)
	}
	for leg := 0; leg < nProvers; leg++ {
		v, err := sess.Verifier().Fork(ctx, []byte{byte(leg)})
		if err != nil {
			t.Fatal(err)
		}
		xs := []int64{int64(leg), int64(leg) + 10}
		res := proveShard(t, sess, v, leg, instances(xs...))
		checkBatch(t, res, xs)
	}
}

// proveShard runs one shard on leg i under verifier v and verifies it.
func proveShard(t *testing.T, sess *Session, v *vc.Verifier, i int, batch [][]*big.Int) *SessionResult {
	t.Helper()
	res, err := vc.Drive(context.Background(), v, sess.Leg(i), batch, 1)
	if err != nil {
		t.Fatalf("leg %d: %v", i, err)
	}
	return res
}

func TestDistributedNoConns(t *testing.T) {
	if _, err := NewSession(context.Background(), nil, Hello{Source: sessionSrc, Backends: zaatarOnly, RhoLin: 1, Rho: 1, NoCommitment: true}, ClientOptions{}); err == nil {
		t.Fatal("no connections accepted")
	}
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
	res, err := oneBatch(context.Background(), conn, hello, ClientOptions{Seed: []byte("tcp"), IOTimeout: 30 * time.Second}, [][]*big.Int{{big.NewInt(8)}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllAccepted() || res.Outputs[0][0].Int64() != 5 {
		t.Fatalf("tcp session failed: %v %v", res.Reasons, res.Outputs)
	}
}

package zaatar_test

import (
	"context"
	"errors"
	"math/big"
	"net"
	"strings"
	"sync/atomic"
	"testing"

	"zaatar"
	"zaatar/internal/obs"
	"zaatar/internal/transport"
)

const farmTestSrc = `
input x : int32;
output y : int32;
output sq : int64;
y = x - 3;
sq = x * x;
`

// startWorker serves one farm worker on a loopback listener (optionally
// wrapped for fault injection) and returns its address.
func startWorker(t *testing.T, wrap func(net.Listener) net.Listener, opts ...zaatar.ServerOption) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if wrap != nil {
		ln = wrap(ln)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = zaatar.ServeWorker(ctx, ln, opts...)
	}()
	t.Cleanup(func() {
		cancel()
		ln.Close()
		<-done
	})
	return ln.Addr().String()
}

func farmBatch(n int) [][]*big.Int {
	batch := make([][]*big.Int, n)
	for i := range batch {
		batch[i] = []*big.Int{big.NewInt(int64(i + 2))}
	}
	return batch
}

func checkFarmOutputs(t *testing.T, batch [][]*big.Int, res *zaatar.SessionResult) {
	t.Helper()
	if !res.AllAccepted() {
		t.Fatalf("rejected: %v", res.Reasons)
	}
	for i := range batch {
		x := batch[i][0].Int64()
		if res.Outputs[i][0].Int64() != x-3 || res.Outputs[i][1].Int64() != x*x {
			t.Fatalf("instance %d outputs: %v", i, res.Outputs[i])
		}
	}
}

// TestDialFarmShardsBatch runs a batch through a two-worker farm over real
// TCP and checks the public client behaves exactly like a Dial'ed one.
func TestDialFarmShardsBatch(t *testing.T) {
	sreg := obs.NewRegistry()
	addrs := []string{
		startWorker(t, nil, zaatar.WithServerMetrics(sreg)),
		startWorker(t, nil, zaatar.WithServerMetrics(sreg)),
	}
	creg := obs.NewRegistry()
	client, err := zaatar.DialFarm(context.Background(), addrs, farmTestSrc,
		zaatar.WithParams(2, 2), zaatar.WithoutCommitment(),
		zaatar.WithSeed([]byte("farm-pub")), zaatar.WithMetrics(creg))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if client.Backend() != zaatar.BackendZaatar {
		t.Fatalf("backend %q", client.Backend())
	}
	batch := farmBatch(8)
	res, err := client.RunBatch(context.Background(), batch)
	if err != nil {
		t.Fatal(err)
	}
	checkFarmOutputs(t, batch, res)
	var text strings.Builder
	if err := sreg.WritePrometheus(&text); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text.String(), "\nzaatar_farm_worker_up 1\n") {
		t.Fatalf("farm.worker.up is not 1:\n%s", text.String())
	}
}

// killSwitch arms mid-session worker death: once armed, the worker's next
// read fails and the connection closes — the in-process stand-in for
// kill -9 mid-batch. Arming after DialFarm returns guarantees the
// handshake (including any v3 source upload) completed first; the worker
// then dies partway through its next shard (between the commit and
// respond phases — a blocked read still delivers its in-flight message).
type killSwitch struct{ armed atomic.Bool }

type dyingConn struct {
	net.Conn
	ks *killSwitch
}

func (c *dyingConn) Read(p []byte) (int, error) {
	if c.ks.armed.Load() {
		c.Conn.Close()
		return 0, errors.New("worker killed")
	}
	return c.Conn.Read(p)
}

type dyingListener struct {
	net.Listener
	ks *killSwitch
}

func (l *dyingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &dyingConn{Conn: conn, ks: l.ks}, nil
}

// TestDialFarmSurvivesWorkerDeath kills one of two workers right after the
// handshake; the farm must requeue its shards onto the survivor and the
// batch must verify.
func TestDialFarmSurvivesWorkerDeath(t *testing.T) {
	ks := &killSwitch{}
	addrs := []string{
		startWorker(t, nil),
		startWorker(t, func(ln net.Listener) net.Listener { return &dyingListener{Listener: ln, ks: ks} }),
	}
	creg := obs.NewRegistry()
	client, err := zaatar.DialFarm(context.Background(), addrs, farmTestSrc,
		zaatar.WithParams(2, 2), zaatar.WithoutCommitment(),
		zaatar.WithSeed([]byte("farm-kill")), zaatar.WithMetrics(creg))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	ks.armed.Store(true)
	batch := farmBatch(6)
	res, err := client.RunBatch(context.Background(), batch)
	if err != nil {
		t.Fatalf("batch should survive one worker death: %v", err)
	}
	checkFarmOutputs(t, batch, res)
	if got := creg.Counter("farm.shard.requeued").Value(); got < 1 {
		t.Fatalf("farm.shard.requeued = %d, want ≥ 1", got)
	}
}

// TestDialFarmReportsDeadWorker: with every worker dead the error is a
// *zaatar.FarmError naming a worker address.
func TestDialFarmReportsDeadWorker(t *testing.T) {
	ks := &killSwitch{}
	kill := func(ln net.Listener) net.Listener { return &dyingListener{Listener: ln, ks: ks} }
	addrs := []string{startWorker(t, kill), startWorker(t, kill)}
	client, err := zaatar.DialFarm(context.Background(), addrs, farmTestSrc,
		zaatar.WithParams(2, 2), zaatar.WithoutCommitment(),
		zaatar.WithMetrics(obs.NewRegistry()))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	ks.armed.Store(true)
	_, err = client.RunBatch(context.Background(), farmBatch(4))
	if err == nil {
		t.Fatal("batch succeeded with every worker dead")
	}
	var fe *zaatar.FarmError
	if !errors.As(err, &fe) {
		t.Fatalf("want *zaatar.FarmError, got %T: %v", err, err)
	}
	if fe.Addr != addrs[0] && fe.Addr != addrs[1] {
		t.Fatalf("FarmError names %q, want one of %v", fe.Addr, addrs)
	}
}

// TestClosedClientFailsAlike: a closed client fails the same way on every
// path. After Close, a two-worker DialFarm client's RunBatch returns
// transport.ErrSessionClosed without counting a worker failure or a
// requeue and without logging a worker death, and an empty batch is
// ErrBatchTooLarge on a Dial'ed and a DialFarm'ed client alike.
func TestClosedClientFailsAlike(t *testing.T) {
	addrs := []string{startWorker(t, nil), startWorker(t, nil)}
	opts := []zaatar.RunOption{zaatar.WithParams(2, 2), zaatar.WithoutCommitment()}

	one, err := zaatar.Dial(context.Background(), addrs[0], farmTestSrc, opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer one.Close()
	var logs strings.Builder
	creg := obs.NewRegistry()
	many, err := zaatar.DialFarm(context.Background(), addrs, farmTestSrc,
		append(opts, zaatar.WithMetrics(creg), zaatar.WithLogger(obs.NewLogger(&logs, "text")))...)
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]*zaatar.Client{"Dial": one, "DialFarm": many} {
		if _, err := c.RunBatch(context.Background(), nil); !errors.Is(err, transport.ErrBatchTooLarge) {
			t.Fatalf("%s: empty batch err = %v, want ErrBatchTooLarge", name, err)
		}
	}

	if err := many.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := many.RunBatch(context.Background(), farmBatch(4)); !errors.Is(err, transport.ErrSessionClosed) {
		t.Fatalf("RunBatch after Close: err = %v, want ErrSessionClosed", err)
	}
	for _, name := range []string{"farm.worker.failures", "farm.shard.requeued"} {
		if got := creg.Counter(name).Value(); got != 0 {
			t.Fatalf("%s = %d after a batch on a closed client, want 0", name, got)
		}
	}
	if strings.Contains(logs.String(), "farm worker died") {
		t.Fatalf("closed client logged a worker death:\n%s", logs.String())
	}
}

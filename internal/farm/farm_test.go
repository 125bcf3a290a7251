package farm

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"net"
	"sync"
	"sync/atomic"
	"testing"

	"zaatar/internal/obs"
	"zaatar/internal/pcp"
	"zaatar/internal/transport"
)

const farmSrc = `
input x : int32;
output y : int32;
output sq : int64;
y = x - 3;
sq = x * x;
`

// dieAfterOpen wraps the server side of a pipe so the worker completes the
// handshake (hello, source upload, ack) and then dies on its first read
// after the session opened: that read closes the connection and fails.
// From the coordinator's side the worker accepted the session and vanished
// while being handed its first shard — the deterministic "killed mid-batch"
// stand-in. died, when non-nil, is closed at that moment.
type dieAfterOpen struct {
	net.Conn
	opened *atomic.Bool
	died   chan struct{}
	once   sync.Once
}

func (c *dieAfterOpen) Read(p []byte) (int, error) {
	if !c.opened.Load() {
		return c.Conn.Read(p)
	}
	_, _ = c.Conn.Read(p) // the coordinator has started a shard here
	c.Conn.Close()
	if c.died != nil {
		c.once.Do(func() { close(c.died) })
	}
	return 0, errors.New("worker killed")
}

// gateAfterOpen wraps the server side of a pipe so the worker completes the
// handshake and then, once the session opened, reads nothing more until
// open is closed: the coordinator cannot finish a shard on this worker
// before then.
type gateAfterOpen struct {
	net.Conn
	opened *atomic.Bool
	open   <-chan struct{}
}

func (c *gateAfterOpen) Read(p []byte) (int, error) {
	if c.opened.Load() {
		<-c.open
	}
	return c.Conn.Read(p)
}

// newTestFarm starts n loopback workers (in-process transport services
// over net.Pipe, recording into the returned registry) and opens a farm on
// hello over them. wrap, when non-nil, may replace worker i's server-side
// connection (fault injection); opened is set once the farm is open.
func newTestFarm(t *testing.T, n int, hello transport.Hello, opts Options, wrap func(i int, conn net.Conn, opened *atomic.Bool) net.Conn) (*Farm, *obs.Registry) {
	t.Helper()
	conns := make([]net.Conn, n)
	addrs := make([]string, n)
	opened := new(atomic.Bool)
	srv := obs.NewRegistry()
	for i := 0; i < n; i++ {
		client, server := net.Pipe()
		if wrap != nil {
			server = wrap(i, server, opened)
		}
		go func(server net.Conn) {
			svc := transport.NewService(transport.ServiceOptions{Workers: 1, Obs: srv})
			_ = svc.ServeConn(context.Background(), server)
		}(server)
		conns[i] = client
		addrs[i] = fmt.Sprintf("worker-%d", i)
	}
	f, err := New(context.Background(), addrs, conns, hello, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	opened.Store(true)
	return f, srv
}

// farmHello is the session every test farm opens: farmSrc on Zaatar with
// commitments off.
var farmHello = transport.Hello{Source: farmSrc, RhoLin: 2, Rho: 2, NoCommitment: true, Backends: []string{pcp.BackendZaatar}}

func intBatch(n int) [][]*big.Int {
	batch := make([][]*big.Int, n)
	for i := range batch {
		batch[i] = []*big.Int{big.NewInt(int64(i + 2))}
	}
	return batch
}

func checkOutputs(t *testing.T, batch [][]*big.Int, res *transport.SessionResult) {
	t.Helper()
	if len(res.Accepted) != len(batch) {
		t.Fatalf("result covers %d of %d instances", len(res.Accepted), len(batch))
	}
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

// TestFarmShardedMatchesSingleProver: a batch sharded across two workers
// verifies with the same per-instance verdicts and outputs a single prover
// would produce.
func TestFarmShardedMatchesSingleProver(t *testing.T) {
	reg := obs.NewRegistry()
	f, _ := newTestFarm(t, 2, farmHello, Options{Seed: []byte("farm"), Obs: reg}, nil)
	batch := intBatch(8)
	res, err := f.RunBatch(context.Background(), batch)
	if err != nil {
		t.Fatal(err)
	}
	checkOutputs(t, batch, res)
	if got := reg.CounterVec(MetricShards, LabelWorker).With("worker-0").Value() +
		reg.CounterVec(MetricShards, LabelWorker).With("worker-1").Value(); got < 2 {
		t.Fatalf("farm.shards = %d, want ≥ 2", got)
	}
	if f.LiveWorkers() != 2 {
		t.Fatalf("live workers = %d after a clean batch", f.LiveWorkers())
	}
	// A second batch reuses the session (fresh seeds per shard).
	res, err = f.RunBatch(context.Background(), batch)
	if err != nil {
		t.Fatal(err)
	}
	checkOutputs(t, batch, res)
}

// TestFarmWorkerDeathRequeues kills one of two workers after the handshake:
// its shards must requeue onto the survivor, the batch must still verify,
// and farm.shard.requeued must tick. Worker 0 takes no shard until worker 1
// has died: otherwise leg 0 may pop every shard, its own and stolen ones,
// before leg 1's goroutine pops one, and the dead connection is never used.
func TestFarmWorkerDeathRequeues(t *testing.T) {
	reg := obs.NewRegistry()
	died := make(chan struct{})
	f, _ := newTestFarm(t, 2, farmHello, Options{Seed: []byte("kill"), Obs: reg},
		func(i int, conn net.Conn, opened *atomic.Bool) net.Conn {
			if i == 1 {
				return &dieAfterOpen{Conn: conn, opened: opened, died: died}
			}
			return &gateAfterOpen{Conn: conn, opened: opened, open: died}
		})
	batch := intBatch(6)
	res, err := f.RunBatch(context.Background(), batch)
	if err != nil {
		t.Fatalf("batch should survive one worker death: %v", err)
	}
	checkOutputs(t, batch, res)
	if got := reg.Counter(MetricShardRequeued).Value(); got < 1 {
		t.Fatalf("farm.shard.requeued = %d, want ≥ 1", got)
	}
	if got := reg.Counter(MetricWorkerFailures).Value(); got != 1 {
		t.Fatalf("farm.worker.failures = %d, want 1", got)
	}
	if f.LiveWorkers() != 1 {
		t.Fatalf("live workers = %d, want 1", f.LiveWorkers())
	}
}

// TestFarmAllWorkersDead: when every worker dies the batch fails with a
// *transport.FarmError naming a worker, never a bare I/O error. A farm of
// one has no survivor to requeue onto, so it counts no requeue.
func TestFarmAllWorkersDead(t *testing.T) {
	for _, n := range []int{1, 2} {
		reg := obs.NewRegistry()
		f, _ := newTestFarm(t, n, farmHello, Options{Seed: []byte("dead"), Obs: reg},
			func(i int, conn net.Conn, opened *atomic.Bool) net.Conn {
				return &dieAfterOpen{Conn: conn, opened: opened}
			})
		_, err := f.RunBatch(context.Background(), intBatch(4))
		if err == nil {
			t.Fatalf("%d workers: batch succeeded with every worker dead", n)
		}
		var fe *transport.FarmError
		if !errors.As(err, &fe) {
			t.Fatalf("%d workers: want *transport.FarmError, got %T: %v", n, err, err)
		}
		if fe.Addr != "worker-0" && fe.Addr != "worker-1" {
			t.Fatalf("%d workers: FarmError does not name a worker: %q", n, fe.Addr)
		}
		if got := reg.Counter(MetricShardRequeued).Value(); n == 1 && got != 0 {
			t.Fatalf("farm of one: farm.shard.requeued = %d, want 0", got)
		}
	}
}

// TestFarmConcurrentShards drives many single-instance shards across three
// workers; with -race this exercises concurrent shard completion into the
// shared result (the CI race job runs this package).
func TestFarmConcurrentShards(t *testing.T) {
	reg := obs.NewRegistry()
	f, _ := newTestFarm(t, 3, farmHello, Options{Seed: []byte("race"), ShardSize: 1, Obs: reg}, nil)
	batch := intBatch(9)
	res, err := f.RunBatch(context.Background(), batch)
	if err != nil {
		t.Fatal(err)
	}
	checkOutputs(t, batch, res)
	if got := reg.CounterVec(MetricShards, LabelWorker).With("worker-0").Value() +
		reg.CounterVec(MetricShards, LabelWorker).With("worker-1").Value() +
		reg.CounterVec(MetricShards, LabelWorker).With("worker-2").Value(); got != 9 {
		t.Fatalf("farm.shards = %d, want 9", got)
	}
}

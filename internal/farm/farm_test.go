package farm

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"net"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"zaatar/internal/obs"
	"zaatar/internal/pcp"
	"zaatar/internal/transport"
	"zaatar/internal/vc"
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
// stand-in.
type dieAfterOpen struct {
	net.Conn
	opened *atomic.Bool
}

func (c *dieAfterOpen) Read(p []byte) (int, error) {
	if !c.opened.Load() {
		return c.Conn.Read(p)
	}
	_, _ = c.Conn.Read(p) // the coordinator has started a shard here
	c.Conn.Close()
	return 0, errors.New("worker killed")
}

// dieOnReply wraps the server side of a pipe so the worker completes the
// handshake, reads its first shard's frame whole, and dies when it goes to
// reply: it was sent the shard's commit request, then vanished. died is
// closed at that moment.
type dieOnReply struct {
	net.Conn
	opened *atomic.Bool
	died   chan struct{}
}

func (c *dieOnReply) Write(p []byte) (int, error) {
	if !c.opened.Load() {
		return c.Conn.Write(p)
	}
	c.Conn.Close()
	close(c.died)
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
// hello over them; the returned logs hold what the farm sent each worker
// (see tee). wrap, when non-nil, may replace worker i's server-side
// connection (fault injection); opened is set once the farm is open.
func newTestFarm(t *testing.T, n int, hello transport.Hello, opts Options, wrap func(i int, conn net.Conn, opened *atomic.Bool) net.Conn) (*Farm, *obs.Registry, []*wireLog) {
	t.Helper()
	conns := make([]net.Conn, n)
	addrs := make([]string, n)
	logs := make([]*wireLog, n)
	opened := new(atomic.Bool)
	srv := obs.NewRegistry()
	for i := 0; i < n; i++ {
		client, server := net.Pipe()
		client, logs[i] = tee(client)
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
	return f, srv, logs
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
// — one shard each — verifies with the same per-instance verdicts and
// outputs a single prover would produce.
func TestFarmShardedMatchesSingleProver(t *testing.T) {
	reg := obs.NewRegistry()
	f, _, _ := newTestFarm(t, 2, farmHello, Options{Seed: []byte("farm"), Obs: reg}, nil)
	batch := intBatch(8)
	// The second batch reuses the session (fresh seeds per shard).
	for b := int64(1); b <= 2; b++ {
		res, err := f.RunBatch(context.Background(), batch)
		if err != nil {
			t.Fatal(err)
		}
		checkOutputs(t, batch, res)
		if got := reg.CounterVec(MetricShards, LabelWorker).Total(); got != 2*b {
			t.Fatalf("after batch %d: farm.shards = %d, want %d (2 per batch)", b, got, 2*b)
		}
	}
	if f.LiveWorkers() != 2 {
		t.Fatalf("live workers = %d after clean batches", f.LiveWorkers())
	}
}

// TestFarmOneShardPerLeg pins the default shard rule: a batch of n over
// live workers is min(n, live) contiguous shards whose sizes differ by at
// most one, each leg commits under its own key, and every leg's key is
// fresh in every batch.
func TestFarmOneShardPerLeg(t *testing.T) {
	for _, tc := range []struct{ workers, n int }{{1, 4}, {2, 4}, {2, 5}, {3, 4}, {3, 2}} {
		t.Run(fmt.Sprintf("%dworkers_%d", tc.workers, tc.n), func(t *testing.T) {
			hello, g := committedHello(t, "leg")
			reg := obs.NewRegistry()
			f, _, logs := newTestFarm(t, tc.workers, hello, Options{Seed: []byte("leg"), Group: g, Obs: reg}, nil)
			shards := reg.CounterVec(MetricShards, LabelWorker)
			want := min(tc.n, tc.workers)
			sent := make([]int, tc.workers) // commit requests logged per leg before this batch
			last := make([]string, tc.workers)
			for b := 1; b <= 2; b++ {
				batch := intBatch(tc.n)
				res, err := f.RunBatch(context.Background(), batch)
				if err != nil {
					t.Fatal(err)
				}
				checkOutputs(t, batch, res)
				if got := shards.Total(); got != int64(b*want) {
					t.Fatalf("batch %d: farm.shards = %d in total, want %d per batch", b, got, want)
				}
				var ranges [][2]int
				keys := make(map[string]bool)
				for leg, log := range logs {
					log.mu.Lock()
					reqs, insts := log.reqs[sent[leg]:], log.instances[sent[leg]:]
					log.mu.Unlock()
					sent[leg] += len(reqs)
					for i, req := range reqs {
						k := keyOf(req)
						if keys[k] {
							t.Fatalf("batch %d: two shards committed under one key", b)
						}
						if k == last[leg] {
							t.Fatalf("batch %d: leg %d reused its key from the previous batch", b, leg)
						}
						keys[k], last[leg] = true, k
						lo := int(insts[i][0][0].Int64()) - 2 // intBatch's instance i is x = i+2
						ranges = append(ranges, [2]int{lo, lo + len(insts[i])})
					}
				}
				if len(ranges) != want {
					t.Fatalf("batch %d: %d commit requests on the wire, want %d", b, len(ranges), want)
				}
				slices.SortFunc(ranges, func(a, b [2]int) int { return a[0] - b[0] })
				lo, small, big := 0, tc.n, 0
				for _, r := range ranges {
					if r[0] != lo {
						t.Fatalf("batch %d: shards %v do not tile [0,%d)", b, ranges, tc.n)
					}
					lo = r[1]
					small, big = min(small, r[1]-r[0]), max(big, r[1]-r[0])
				}
				if lo != tc.n || big-small > 1 {
					t.Fatalf("batch %d: shards %v, want a tiling of [0,%d) with sizes within one", b, ranges, tc.n)
				}
			}
			if got := reg.Counter(MetricShardStolen).Value(); got != 0 {
				t.Fatalf("farm.shard.stolen = %d with no worker lost, want 0", got)
			}
		})
	}
}

// TestFarmBatchMetrics: a batch sharded over two workers reports the whole
// batch in Metrics. The shards' set-up and verification times add up, and
// each phase wall is the slowest shard's — read back from the vc.phase
// histograms, which observe exactly the durations Drive records.
func TestFarmBatchMetrics(t *testing.T) {
	hello, g := committedHello(t, "met")
	reg := obs.NewRegistry()
	f, _, _ := newTestFarm(t, 2, hello, Options{Seed: []byte("met"), Group: g, Obs: reg}, nil)
	phase := func(name string) obs.HistogramSnapshot {
		return reg.HistogramVec(vc.MetricPhase, vc.LabelPhase, vc.LabelBackend).With(name, pcp.BackendZaatar).Snapshot()
	}
	batch := intBatch(5)
	res, err := f.RunBatch(context.Background(), batch)
	if err != nil {
		t.Fatal(err)
	}
	checkOutputs(t, batch, res)
	m := res.Metrics
	if m.Instances != 5 {
		t.Fatalf("Instances = %d, want 5", m.Instances)
	}
	for name, got := range map[string]time.Duration{"commit": m.Commit, "decommit": m.Decommit, "respond": m.Respond} {
		if h := phase(name); h.Count != 2 || got != h.Max {
			t.Fatalf("%s = %v, want the slower of the %d shards' %v", name, got, h.Count, h.Max)
		}
	}
	if m.RespondVerify < m.Respond || m.ProverWall < m.Commit || m.ProverWall < m.Respond {
		t.Fatalf("overlap walls below their phases: %+v", m)
	}
	if h := phase("verify"); h.Count != 5 || m.VerifyTotal != h.Sum {
		t.Fatalf("VerifyTotal = %v, want the %d instances' sum %v", m.VerifyTotal, h.Count, h.Sum)
	}

	// From the second batch on each leg's verifier is re-keyed in the
	// batch, so Setup is the two re-keys' sum.
	before := phase("setup")
	if res, err = f.RunBatch(context.Background(), batch); err != nil {
		t.Fatal(err)
	}
	checkOutputs(t, batch, res)
	after := phase("setup")
	if n := after.Count - before.Count; n != 2 || res.Metrics.Setup != after.Sum-before.Sum {
		t.Fatalf("Setup = %v, want the sum %v of the batch's %d re-keys", res.Metrics.Setup, after.Sum-before.Sum, n)
	}
}

// TestFarmWorkerDeathRequeues kills one of two workers once it was sent its
// shard: the shard must requeue onto the survivor under a key the dead
// worker was never sent, the batch must still verify, and
// farm.shard.requeued must tick. Worker 0 reads nothing until worker 1 has
// died, so the requeued shard is the second one worker 0 commits.
func TestFarmWorkerDeathRequeues(t *testing.T) {
	hello, g := committedHello(t, "kill")
	reg := obs.NewRegistry()
	died := make(chan struct{})
	f, _, logs := newTestFarm(t, 2, hello, Options{Seed: []byte("kill"), Group: g, Obs: reg},
		func(i int, conn net.Conn, opened *atomic.Bool) net.Conn {
			if i == 1 {
				return &dieOnReply{Conn: conn, opened: opened, died: died}
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
	f.Close()
	<-logs[0].done
	<-logs[1].done
	if len(logs[1].reqs) != 1 || len(logs[0].reqs) != 2 {
		t.Fatalf("commit requests sent: %d to the dead worker, %d to the survivor; want 1 and 2", len(logs[1].reqs), len(logs[0].reqs))
	}
	if lo := logs[0].instances[1][0][0].Int64() - 2; lo != 3 || len(logs[0].instances[1]) != 3 {
		t.Fatalf("survivor's second shard starts at %d with %d instances, want the dead worker's [3,6)", lo, len(logs[0].instances[1]))
	}
	if keyOf(logs[0].reqs[1]) == keyOf(logs[1].reqs[0]) {
		t.Fatal("requeued shard committed under the key its dead worker was sent")
	}
}

// TestFarmAllWorkersDead: when every worker dies the batch fails with a
// *transport.FarmError naming a worker, never a bare I/O error. A farm of
// one has no survivor to requeue onto, so it counts no requeue.
func TestFarmAllWorkersDead(t *testing.T) {
	for _, n := range []int{1, 2} {
		reg := obs.NewRegistry()
		f, _, _ := newTestFarm(t, n, farmHello, Options{Seed: []byte("dead"), Obs: reg},
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

// TestFarmConcurrentShards drives three workers' shards side by side;
// with -race this exercises concurrent shard completion into the shared
// result (the CI race job runs this package).
func TestFarmConcurrentShards(t *testing.T) {
	reg := obs.NewRegistry()
	f, _, _ := newTestFarm(t, 3, farmHello, Options{Seed: []byte("race"), Obs: reg}, nil)
	batch := intBatch(9)
	res, err := f.RunBatch(context.Background(), batch)
	if err != nil {
		t.Fatal(err)
	}
	checkOutputs(t, batch, res)
	for i := range 3 {
		if got := reg.CounterVec(MetricShards, LabelWorker).With(fmt.Sprintf("worker-%d", i)).Value(); got != 1 {
			t.Fatalf("farm.shards{worker-%d} = %d, want 1", i, got)
		}
	}
}

// TestFarmRequeueUntilNoWorkerLeft kills three of four workers as they are
// sent their first shard: the batch must verify on the survivor, which
// runs the three orphaned shards in a second round, each under a key no
// dead worker was sent.
func TestFarmRequeueUntilNoWorkerLeft(t *testing.T) {
	hello, g := committedHello(t, "rounds")
	reg := obs.NewRegistry()
	f, _, logs := newTestFarm(t, 4, hello, Options{Seed: []byte("rounds"), Group: g, Obs: reg},
		func(i int, conn net.Conn, opened *atomic.Bool) net.Conn {
			if i == 0 {
				return conn
			}
			return &dieOnReply{Conn: conn, opened: opened, died: make(chan struct{})}
		})
	batch := intBatch(8)
	res, err := f.RunBatch(context.Background(), batch)
	if err != nil {
		t.Fatalf("batch should survive on its last worker: %v", err)
	}
	checkOutputs(t, batch, res)
	for name, want := range map[string]int64{MetricShardRequeued: 3, MetricShardStolen: 3, MetricWorkerFailures: 3} {
		if got := reg.Counter(name).Value(); got != want {
			t.Fatalf("%s = %d, want %d", name, got, want)
		}
	}
	if f.LiveWorkers() != 1 {
		t.Fatalf("live workers = %d, want 1", f.LiveWorkers())
	}
	f.Close()
	for _, log := range logs {
		<-log.done
	}
	if len(logs[0].reqs) != 4 {
		t.Fatalf("survivor sent %d commit requests, want its own shard and three requeued ones", len(logs[0].reqs))
	}
	dead := make(map[string]bool)
	for _, log := range logs[1:] {
		if len(log.reqs) != 1 {
			t.Fatalf("a dead worker was sent %d commit requests, want 1", len(log.reqs))
		}
		dead[keyOf(log.reqs[0])] = true
	}
	for i, req := range logs[0].reqs[1:] {
		if dead[keyOf(req)] {
			t.Fatalf("requeued shard %d committed under a key a dead worker was sent", i)
		}
	}
}

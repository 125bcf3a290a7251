package farm

import (
	"bytes"
	"context"
	"encoding/gob"
	"encoding/json"
	"errors"
	"io"
	"math/big"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"zaatar/internal/elgamal"
	"zaatar/internal/field"
	"zaatar/internal/obs"
	"zaatar/internal/obs/trace"
	"zaatar/internal/pcp"
	"zaatar/internal/prg"
	"zaatar/internal/transport"
	"zaatar/internal/vc"
)

// wireLog records what the coordinator sends one worker: each batch's
// commit request and instances, and each decommit's query seed.
type wireLog struct {
	mu        sync.Mutex
	reqs      []*vc.CommitRequest
	instances [][][]*big.Int
	seeds     [][]byte
	done      chan struct{} // closed once the goodbye frame (or a hangup) is decoded
}

// tee wraps the coordinator's end of a worker's pipe so every frame the
// coordinator writes is also decoded into the returned log: the hello, the
// source upload a fresh service always asks for, then BatchMsg/DecommitMsg
// pairs until the goodbye frame. A frame is logged whole before the worker
// reads any of it, so a worker that dies mid-frame is still logged as
// having been sent it. A batch's frame is logged before its decommit is
// written, so once RunBatch returns, every commit request it sent is in
// the log.
func tee(conn net.Conn) (net.Conn, *wireLog) {
	r, w := io.Pipe()
	log := &wireLog{done: make(chan struct{})}
	go func() {
		defer io.Copy(io.Discard, r) // keep the coordinator's writes flowing
		defer close(log.done)
		dec := gob.NewDecoder(r)
		var h transport.Hello
		var src transport.SourceMsg
		if dec.Decode(&h) != nil || dec.Decode(&src) != nil {
			return
		}
		for {
			var b transport.BatchMsg
			if dec.Decode(&b) != nil || b.Close {
				return
			}
			log.mu.Lock()
			log.reqs = append(log.reqs, b.Req)
			log.instances = append(log.instances, b.Instances)
			log.mu.Unlock()
			var d transport.DecommitMsg
			if dec.Decode(&d) != nil {
				return
			}
			log.mu.Lock()
			log.seeds = append(log.seeds, append([]byte(nil), d.Req.Seed...))
			log.mu.Unlock()
		}
	}()
	return &teeConn{Conn: conn, w: w}, log
}

type teeConn struct {
	net.Conn
	w *io.PipeWriter
}

func (c *teeConn) Write(p []byte) (int, error) {
	_, _ = c.w.Write(p)
	return c.Conn.Write(p)
}

func (c *teeConn) Close() error {
	c.w.Close()
	return c.Conn.Close()
}

// keyOf names the commitment key a commit request carries by its first
// Enc(r) component.
func keyOf(req *vc.CommitRequest) string { return req.EncR1[0].A.String() }

// committedHello is farmHello with the commitment on, over a small test
// group.
func committedHello(t *testing.T, seed string) (transport.Hello, *elgamal.Group) {
	t.Helper()
	g, err := elgamal.GenerateGroup(field.F128().Modulus(), 320, prg.NewFromSeed([]byte(seed), 0))
	if err != nil {
		t.Fatal(err)
	}
	hello := farmHello
	hello.RhoLin, hello.Rho, hello.NoCommitment = 1, 1, false
	return hello, g
}

// TestKeepAliveRekeysPerBatch runs two committed batches on one kept-alive
// worker and records each BatchMsg: every batch must carry its own commit
// request with fresh key material. Reusing r across batches is a soundness
// bug, not an optimization — the prover could subtract the two revealed
// consistency points t = r + Σ αᵢqᵢ and solve for r.
func TestKeepAliveRekeysPerBatch(t *testing.T) {
	hello, g := committedHello(t, "kg")
	f, _, logs := newTestFarm(t, 1, hello, Options{Seed: []byte("kc"), Group: g}, nil)
	log := logs[0]
	setup := f.SetupDuration()
	for b, n := range []int{1, 2} {
		batch := intBatch(n)
		res, err := f.RunBatch(context.Background(), batch)
		if err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
		checkOutputs(t, batch, res)
	}
	if setup != f.SetupDuration() {
		t.Fatal("keep-alive batches must not repeat session setup")
	}
	f.Close()
	<-log.done
	if len(log.reqs) != 2 || log.reqs[0] == nil || log.reqs[1] == nil {
		t.Fatalf("recorded %d commit requests (nil included?), want one per batch", len(log.reqs))
	}
	if log.reqs[0].PK.H.Cmp(log.reqs[1].PK.H) == 0 {
		t.Fatal("ElGamal key reused across keep-alive batches")
	}
	if keyOf(log.reqs[0]) == keyOf(log.reqs[1]) {
		t.Fatal("commitment vector Enc(r) reused across keep-alive batches")
	}
}

// TestKeepAliveSetupPerBatch: on a kept-alive session each batch reports
// its own set-up. Batch 1 runs on the dial-time verifier; batch 2 re-keys
// it, and its Metrics.Setup must be that re-key — the one vc.setup span
// the two batches record — not batch 1's dial-time set-up again.
func TestKeepAliveSetupPerBatch(t *testing.T) {
	hello, g := committedHello(t, "su")
	f, _, _ := newTestFarm(t, 1, hello, Options{Seed: []byte("su"), Group: g}, nil)
	rec := trace.NewRecorder(4096)
	ctx := trace.NewContext(context.Background(), trace.New(rec, "verifier"))
	var setups []time.Duration
	for b := 0; b < 2; b++ {
		res, err := f.RunBatch(ctx, intBatch(2))
		if err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
		setups = append(setups, res.Metrics.Setup)
	}
	var spans []trace.Record
	for _, r := range rec.Snapshot() {
		if r.Name == "vc.setup" {
			spans = append(spans, r)
		}
	}
	if len(spans) != 1 {
		t.Fatalf("%d vc.setup spans over two batches, want batch 2's re-key only", len(spans))
	}
	if setups[1] == setups[0] {
		t.Fatalf("batch 2 reports batch 1's set-up %v", setups[0])
	}
	// The span brackets the phase timer, so it is longer by the two clock
	// reads between them.
	if d := time.Duration(spans[0].Dur) - setups[1]; d < 0 || d > time.Millisecond {
		t.Fatalf("batch 2 Metrics.Setup = %v, its vc.setup span lasted %v", setups[1], time.Duration(spans[0].Dur))
	}
}

// TestKeepAliveFreshSeeds checks the per-batch reseed actually changes the
// queries: two batches on a fixed client seed decommit different seeds on
// the wire.
func TestKeepAliveFreshSeeds(t *testing.T) {
	hello := farmHello
	hello.RhoLin, hello.Rho = 1, 1
	f, _, logs := newTestFarm(t, 1, hello, Options{Seed: []byte("fs")}, nil)
	log := logs[0]
	for b := 0; b < 2; b++ {
		if res, err := f.RunBatch(context.Background(), intBatch(1)); err != nil || !res.AllAccepted() {
			t.Fatalf("batch %d: %v %v", b, err, res)
		}
	}
	f.Close()
	<-log.done
	if len(log.seeds) != 2 {
		t.Fatalf("recorded %d seeds, want 2", len(log.seeds))
	}
	if string(log.seeds[0]) == string(log.seeds[1]) {
		t.Fatal("keep-alive batches reused the query seed — binding would break")
	}
}

// TestOneWorkerBatchIsOneWireBatch: on a farm of one — what zaatar.Dial
// opens — a batch of four is one shard, so each RunBatch is one
// farm.shards on the client and one wire batch on the server, and two
// consecutive batches commit under different keys.
func TestOneWorkerBatchIsOneWireBatch(t *testing.T) {
	hello, g := committedHello(t, "ow")
	reg := obs.NewRegistry()
	f, srv, logs := newTestFarm(t, 1, hello, Options{Seed: []byte("ow"), Group: g, Obs: reg}, nil)
	log := logs[0]
	shards := reg.CounterVec(MetricShards, LabelWorker)
	const batches = 2
	for b := 1; b <= batches; b++ {
		batch := intBatch(4)
		res, err := f.RunBatch(context.Background(), batch)
		if err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
		checkOutputs(t, batch, res)
		if got := shards.Total(); got != int64(b) {
			t.Fatalf("after batch %d: client %s = %d, want %d", b, MetricShards, got, b)
		}
	}
	f.Close()
	// The server counts a batch after answering it and before reading the
	// next frame, so once the goodbye frame is read every batch is counted.
	// Each RunBatch needs at least one wire batch; a total of one per
	// RunBatch means exactly one each.
	<-log.done
	if got := srv.CounterVec(transport.MetricServedBatches, transport.LabelBackend, transport.LabelProgramHash).Total(); got != batches {
		t.Fatalf("server %s = %d after %d batches, want %d", transport.MetricServedBatches, got, batches, batches)
	}
	if len(log.reqs) != batches {
		t.Fatalf("recorded %d commit requests, want %d", len(log.reqs), batches)
	}
	if keyOf(log.reqs[0]) == keyOf(log.reqs[1]) {
		t.Fatal("consecutive batches carried the same Enc(r)")
	}
}

// TestDistributedNoConns: a farm needs at least one worker.
func TestDistributedNoConns(t *testing.T) {
	if _, err := New(context.Background(), nil, nil, farmHello, Options{}); err == nil {
		t.Fatal("no connections accepted")
	}
}

// TestNegotiateDistributedMismatch: a distributed batch needs every worker
// on the same backend; servers restricted to disjoint picks must fail the
// session at negotiation time.
func TestNegotiateDistributedMismatch(t *testing.T) {
	svcA := transport.NewService(transport.ServiceOptions{Workers: 2, Obs: obs.NewRegistry()}) // picks sumcheck
	svcB := transport.NewService(transport.ServiceOptions{Workers: 2, Obs: obs.NewRegistry(), Backends: []string{pcp.BackendZaatar}})
	var conns []net.Conn
	var errs []chan error
	for _, svc := range []*transport.Service{svcA, svcB} {
		client, server := net.Pipe()
		errCh := make(chan error, 1)
		go func() { errCh <- svc.ServeConn(context.Background(), server) }()
		conns, errs = append(conns, client), append(errs, errCh)
	}
	hello := transport.Hello{Source: farmSrc, RhoLin: 1, Rho: 1, Backends: []string{pcp.BackendSumcheck, pcp.BackendZaatar}}
	_, err := New(context.Background(), []string{"a", "b"}, conns, hello, Options{Obs: obs.NewRegistry()})
	if err == nil {
		t.Fatal("session succeeded with disagreeing workers")
	}
	if !errors.Is(err, transport.ErrNoCommonBackend) {
		t.Fatalf("err = %v, want ErrNoCommonBackend", err)
	}
	for _, errCh := range errs {
		<-errCh
	}
}

// syncBuffer serializes concurrent log writes (the server logs from its
// session goroutine).
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) lines() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return strings.Split(strings.TrimSpace(b.buf.String()), "\n")
}

// TestStructuredLogsJoinTrace is the acceptance check for log↔trace
// correlation: a traced client↔server run with JSON logging on both sides
// yields log records whose trace_id equals the session's trace identifier
// in the exact %016x form the Perfetto export renders, and whose span_id
// appears among the exported spans.
func TestStructuredLogsJoinTrace(t *testing.T) {
	var serverLog, clientLog syncBuffer
	reg := obs.NewRegistry()
	svc := transport.NewService(transport.ServiceOptions{
		Workers: 2,
		Obs:     reg,
		Logger:  obs.NewLogger(&serverLog, "json"),
	})
	client, server := net.Pipe()
	errCh := make(chan error, 1)
	go func() { errCh <- svc.ServeConn(context.Background(), server) }()

	rec := trace.NewRecorder(4096)
	tc := trace.New(rec, "verifier")
	ctx := trace.NewContext(context.Background(), tc)

	f, err := New(ctx, []string{"w"}, []net.Conn{client}, farmHello, Options{
		Seed:   []byte("corr"),
		Obs:    reg,
		Logger: obs.NewLogger(&clientLog, "json"),
	})
	if err != nil {
		t.Fatal(err)
	}
	batch := intBatch(2)
	res, err := f.RunBatch(ctx, batch)
	if err != nil {
		t.Fatal(err)
	}
	checkOutputs(t, batch, res)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-errCh; err != nil {
		t.Fatalf("server: %v", err)
	}

	wantTrace := obs.TraceIDString(uint64(tc.TraceID()))

	// The exported trace (what -trace writes to disk) renders the same ids;
	// collect its span set for the join.
	var exported bytes.Buffer
	if err := trace.WriteChrome(&exported, rec.Snapshot(), nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(exported.String(), wantTrace) {
		t.Fatalf("exported trace does not mention trace id %s", wantTrace)
	}
	spanIDs := make(map[string]bool)
	for _, r := range rec.Snapshot() {
		spanIDs[obs.TraceIDString(uint64(r.Span))] = true
		spanIDs[obs.TraceIDString(uint64(r.Parent))] = true
	}

	for side, buf := range map[string]*syncBuffer{"server": &serverLog, "client": &clientLog} {
		lines := buf.lines()
		if len(lines) == 0 || lines[0] == "" {
			t.Fatalf("%s produced no log records", side)
		}
		joined := 0
		for _, line := range lines {
			var m map[string]any
			if err := json.Unmarshal([]byte(line), &m); err != nil {
				t.Fatalf("%s log line is not JSON: %v\n%s", side, err, line)
			}
			tid, ok := m["trace_id"].(string)
			if !ok {
				continue // records logged outside a traced context
			}
			if tid != wantTrace {
				t.Fatalf("%s log %q carries trace_id %s, want %s", side, m["msg"], tid, wantTrace)
			}
			if sid, ok := m["span_id"].(string); ok && spanIDs[sid] {
				joined++
			}
		}
		if joined == 0 {
			t.Fatalf("%s: no log record's span_id joins the exported trace:\n%s", side, strings.Join(lines, "\n"))
		}
	}

	// Server-side session records must carry the tenant attribution fields.
	var sawBatch bool
	for _, line := range serverLog.lines() {
		var m map[string]any
		_ = json.Unmarshal([]byte(line), &m)
		if m["msg"] == "batch served" {
			sawBatch = true
			if m[transport.LabelBackend] == "" || m[transport.LabelProgramHash] != transport.ProgramHash(farmSrc) {
				t.Fatalf("batch record missing tenant attribution: %v", m)
			}
			if _, ok := m["session"]; !ok {
				t.Fatalf("batch record missing session id: %v", m)
			}
		}
	}
	if !sawBatch {
		t.Fatal("server never logged a batch")
	}
}

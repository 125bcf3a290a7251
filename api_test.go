package zaatar

import (
	"context"
	"math/big"
	"net"
	"strings"
	"testing"
	"time"

	"zaatar/internal/obs"
	"zaatar/internal/transport"
)

// TestServeAndDial exercises the whole public split deployment: Serve on a
// TCP listener, Dial a client, push two batches over the kept-alive
// session, close, cancel.
func TestServeAndDial(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- Serve(ctx, ln,
			WithServerWorkers(2),
			WithMaxSessions(4),
			WithServerMetrics(reg),
		)
	}()

	src := `input x : int32; output y : int32; y = x - 3;`
	client, err := Dial(context.Background(), ln.Addr().String(), src,
		WithParams(2, 2), WithoutCommitment(), WithSeed([]byte("dial")))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if client.Program().NumInputs() != 1 {
		t.Fatalf("program shape: %d inputs", client.Program().NumInputs())
	}
	for b, want := range []int64{7, -3} {
		res, err := client.RunBatch(context.Background(), [][]*big.Int{{big.NewInt(want + 3)}})
		if err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
		if !res.AllAccepted() {
			t.Fatalf("batch %d rejected: %v", b, res.Reasons)
		}
		if got := res.Outputs[0][0].Int64(); got != want {
			t.Fatalf("batch %d output %d, want %d", b, got, want)
		}
	}
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after cancel")
	}
	if got := reg.CounterVec(transport.MetricServedBatches, transport.LabelBackend, transport.LabelProgramHash).Total(); got != 2 {
		t.Fatalf("server batches = %d, want 2", got)
	}
}

// TestServeRestartRecompilesOnce: compiled programs live in memory only.
// After a restart on a fresh registry the returning client uploads its
// source and the server compiles exactly once; a second client on that
// process hits memory and never uploads the source.
func TestServeRestartRecompilesOnce(t *testing.T) {
	src := `input x : int32; output y : int32; y = x - 3;`

	serve := func(reg *obs.Registry) (addr string, stop func(*testing.T)) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() {
			done <- Serve(ctx, ln, WithServerWorkers(2), WithServerMetrics(reg))
		}()
		return ln.Addr().String(), func(t *testing.T) {
			cancel()
			select {
			case err := <-done:
				if err != nil {
					t.Fatalf("Serve: %v", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("Serve did not return after cancel")
			}
		}
	}

	runOnce := func(addr string, seed string) {
		client, err := Dial(context.Background(), addr, src,
			WithParams(2, 2), WithoutCommitment(), WithSeed([]byte(seed)))
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()
		res, err := client.RunBatch(context.Background(), [][]*big.Int{{big.NewInt(8)}})
		if err != nil {
			t.Fatal(err)
		}
		if !res.AllAccepted() {
			t.Fatalf("rejected: %v", res.Reasons)
		}
	}

	addr, stop := serve(obs.NewRegistry())
	runOnce(addr, "first")
	stop(t)

	reg := obs.NewRegistry()
	addr, stop = serve(reg)
	skipped := func() int64 {
		return reg.CounterVec(transport.MetricHelloSourceSkipped, transport.LabelProgramHash).Total()
	}
	runOnce(addr, "returning")
	if misses, s := reg.Counter(transport.MetricCacheMisses).Value(), skipped(); misses != 1 || s != 0 {
		t.Fatalf("returning client after restart: %d cache misses, %d skipped uploads; want 1 and 0", misses, s)
	}
	runOnce(addr, "second")
	stop(t)
	if got := reg.Counter(transport.MetricCacheMisses).Value(); got != 1 {
		t.Fatalf("cache misses = %d, want 1 (one compile per process)", got)
	}
	if got := reg.Counter(transport.MetricCacheHits).Value(); got != 1 {
		t.Fatalf("cache hits = %d, want 1", got)
	}
	if got := skipped(); got != 1 {
		t.Fatalf("source uploads skipped = %d, want 1", got)
	}
	if got := reg.Counter(transport.MetricHelloBytesSaved).Value(); got != int64(len(src)) {
		t.Fatalf("bytes saved = %d, want %d", got, len(src))
	}
}

// TestDialBadAddress covers the error paths reachable without a server.
// Dial takes exactly one prover: an address list is refused with an error
// pointing at DialFarm, before anything is dialed.
func TestDialBadAddress(t *testing.T) {
	if _, err := Dial(context.Background(), " ", "input x : int32; output y : int32; y = x;"); err == nil {
		t.Fatal("empty address accepted")
	}
	_, err := Dial(context.Background(), "127.0.0.1:1,127.0.0.1:2", "input x : int32; output y : int32; y = x;")
	if err == nil || !strings.Contains(err.Error(), "DialFarm") {
		t.Fatalf("address list: err = %v, want a refusal naming DialFarm", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := Dial(ctx, "127.0.0.1:1", `input x : int32; output y : int32; y = x;`); err == nil {
		t.Fatal("dial to a closed port succeeded")
	}
}

// TestFieldMismatchRuntimeError is the documented runtime half of the
// CompileOption/RunOption split: a field option passed to Run but not to
// Compile fails loudly instead of being silently ignored.
func TestFieldMismatchRuntimeError(t *testing.T) {
	prog, err := Compile(`input x : int32; output y : int32; y = x + 1;`)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(prog, [][]*big.Int{{big.NewInt(1)}},
		WithField220(), WithParams(1, 1), WithoutCommitment())
	if err == nil {
		t.Fatal("field mismatch between Compile and Run went undetected")
	}
	if !strings.Contains(err.Error(), "F220") || !strings.Contains(err.Error(), "F128") {
		t.Fatalf("mismatch error should name both fields: %v", err)
	}
	if _, err := NewVerifier(prog, WithField220()); err == nil {
		t.Fatal("NewVerifier accepted a mismatched field option")
	}
	if _, err := NewProver(prog, WithField220()); err == nil {
		t.Fatal("NewProver accepted a mismatched field option")
	}
	// Passed consistently, the same option is fine.
	prog220, err := Compile(`input x : int32; output y : int32; y = x + 1;`, WithField220())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(prog220, [][]*big.Int{{big.NewInt(1)}},
		WithField220(), WithParams(1, 1), WithoutCommitment(), WithSeed([]byte("fm")))
	if err != nil || !res.AllAccepted() {
		t.Fatalf("matched field run failed: %v", err)
	}
}

// TestDialBackendNegotiation covers the public backend surface end to end:
// an auto-mode client negotiates the sum-check lane with a full server, a
// restricted server degrades the same offer to zaatar, and an explicit
// unavailable backend fails loudly.
func TestDialBackendNegotiation(t *testing.T) {
	// Pure arithmetic, so the cost model recommends sumcheck and every
	// backend accepts it.
	src := `input x : int32; output y : int32; output sq : int64; y = x - 3; sq = x * x;`
	serve := func(t *testing.T, opts ...ServerOption) (addr string, stop func()) {
		t.Helper()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() { done <- Serve(ctx, ln, opts...) }()
		return ln.Addr().String(), func() {
			cancel()
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				t.Error("Serve did not return after cancel")
			}
		}
	}

	checkBatch := func(t *testing.T, client *Client) {
		t.Helper()
		res, err := client.RunBatch(context.Background(), [][]*big.Int{{big.NewInt(10)}})
		if err != nil {
			t.Fatal(err)
		}
		if !res.AllAccepted() {
			t.Fatalf("rejected: %v", res.Reasons)
		}
		if res.Outputs[0][0].Int64() != 7 || res.Outputs[0][1].Int64() != 100 {
			t.Fatalf("outputs: %v", res.Outputs[0])
		}
	}

	t.Run("auto negotiates sumcheck", func(t *testing.T) {
		addr, stop := serve(t, WithServerWorkers(2))
		defer stop()
		client, err := Dial(context.Background(), addr, src,
			WithParams(2, 2), WithBackend(BackendAuto), WithSeed([]byte("auto")))
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()
		if got := client.Backend(); got != BackendSumcheck {
			t.Fatalf("negotiated %q, want sumcheck", got)
		}
		checkBatch(t, client)
	})

	t.Run("auto degrades to zaatar", func(t *testing.T) {
		addr, stop := serve(t, WithServerWorkers(2), WithServerBackends(BackendZaatar, BackendGinger))
		defer stop()
		client, err := Dial(context.Background(), addr, src,
			WithParams(2, 2), WithBackend(BackendAuto), WithoutCommitment(), WithSeed([]byte("deg")))
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()
		if got := client.Backend(); got != BackendZaatar {
			t.Fatalf("negotiated %q, want zaatar", got)
		}
		checkBatch(t, client)
	})

	t.Run("explicit backend unavailable", func(t *testing.T) {
		addr, stop := serve(t, WithServerWorkers(2), WithServerBackends(BackendZaatar))
		defer stop()
		_, err := Dial(context.Background(), addr, src,
			WithParams(2, 2), WithBackend(BackendSumcheck))
		if err == nil {
			t.Fatal("dial succeeded against a server without the requested backend")
		}
		if !strings.Contains(err.Error(), "no common proof backend") {
			t.Fatalf("err = %v, want no-common-backend", err)
		}
	})
}

// TestBackendsListed checks the build's backend registry surface.
func TestBackendsListed(t *testing.T) {
	names := Backends()
	want := map[string]bool{BackendZaatar: false, BackendGinger: false, BackendSumcheck: false}
	for _, n := range names {
		if _, ok := want[n]; ok {
			want[n] = true
		}
	}
	for n, seen := range want {
		if !seen {
			t.Errorf("Backends() = %v missing %q", names, n)
		}
	}
}

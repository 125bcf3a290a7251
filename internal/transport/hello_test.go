package transport

import (
	"context"
	"crypto/sha256"
	"encoding/gob"
	"errors"
	"net"
	"sync"
	"testing"
	"time"
)

// TestHashFirstMemoryWarm drives two hash-first sessions against one
// service: the first uploads on SourceNeeded, the second opens
// off the memory tier with no upload at all.
func TestHashFirstMemoryWarm(t *testing.T) {
	svc, reg := testService(ServiceOptions{Workers: 2})
	hello := Hello{Source: sessionSrc, Backends: zaatarOnly, RhoLin: 2, Rho: 2, NoCommitment: true}
	for i, want := range []int64{0, 1} {
		client, errCh := servicePipe(svc)
		res, err := oneBatch(context.Background(), client, hello,
			clientOpts{Seed: []byte{byte(i)}}, instances(5))
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
		if !res.AllAccepted() {
			t.Fatalf("session %d rejected: %v", i, res.Reasons)
		}
		if err := <-errCh; err != nil {
			t.Fatalf("server %d: %v", i, err)
		}
		if got := reg.CounterVec(MetricHelloSourceSkipped, LabelProgramHash).Total(); got != want {
			t.Fatalf("after session %d: skipped = %d, want %d", i, got, want)
		}
	}
	if got := reg.Counter(MetricCacheHits).Value(); got != 1 {
		t.Fatalf("cache hits = %d, want 1", got)
	}
}

// TestServiceRestartRecompilesOnce: a fresh Service shares nothing with
// the one before it. The returning client is asked for its source and the
// service compiles exactly once; a second client on the new service opens
// off memory, and its stitched trace shows no compile or preprocess span.
func TestServiceRestartRecompilesOnce(t *testing.T) {
	hello := Hello{Source: sessionSrc, Backends: zaatarOnly, RhoLin: 2, Rho: 2, NoCommitment: true}
	run := func(ctx context.Context, svc *Service, seed string) {
		t.Helper()
		client, errCh := servicePipe(svc)
		res, err := oneBatch(ctx, client, hello, clientOpts{Seed: []byte(seed)}, instances(5))
		if err != nil {
			t.Fatalf("%s: %v", seed, err)
		}
		if !res.AllAccepted() {
			t.Fatalf("%s rejected: %v", seed, res.Reasons)
		}
		if err := <-errCh; err != nil {
			t.Fatalf("%s server: %v", seed, err)
		}
	}

	svc1, _ := testService(ServiceOptions{Workers: 2})
	run(context.Background(), svc1, "first")

	svc2, reg := testService(ServiceOptions{Workers: 2})
	skipped := func() int64 { return reg.CounterVec(MetricHelloSourceSkipped, LabelProgramHash).Total() }
	ctxR, tcR := tracedContext(t)
	run(ctxR, svc2, "returning")
	if misses, s := reg.Counter(MetricCacheMisses).Value(), skipped(); misses != 1 || s != 0 {
		t.Fatalf("returning client after restart: %d cache misses, %d skipped uploads; want 1 and 0", misses, s)
	}
	if n := len(byName(tcR.Recorder().Snapshot(), "prover.compile")); n != 1 {
		t.Fatalf("returning client: prover.compile spans = %d, want 1", n)
	}

	ctxS, tcS := tracedContext(t)
	run(ctxS, svc2, "second")
	if got := reg.Counter(MetricCacheMisses).Value(); got != 1 {
		t.Fatalf("cache misses = %d, want 1 (one compile per service)", got)
	}
	if got := reg.Counter(MetricCacheHits).Value(); got != 1 {
		t.Fatalf("cache hits = %d, want 1", got)
	}
	if got := skipped(); got != 1 {
		t.Fatalf("source uploads skipped = %d, want 1", got)
	}
	recs := tcS.Recorder().Snapshot()
	for _, span := range []string{"prover.compile", "prover.preprocess"} {
		if n := len(byName(recs, span)); n != 0 {
			t.Fatalf("second client ran %d %s spans, want 0", n, span)
		}
	}
}

// TestHashFirstDowngradeInterop: a server from before hash-first hellos
// rejected one with its own, older version in the error ack, which used to
// make the client redial with the full source. The client now takes the
// rejection as final: it fails in the hello phase over the one connection
// it was given, without uploading the source.
func TestHashFirstDowngradeInterop(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	got := make(chan Hello, 1)
	go func() {
		defer server.Close()
		dec, enc := gob.NewDecoder(server), gob.NewEncoder(server)
		var h Hello
		if dec.Decode(&h) != nil {
			return
		}
		got <- h
		_ = enc.Encode(HelloAck{Err: "transport: malformed hello: empty source", Version: 2})
	}()
	hello := Hello{Source: sessionSrc, Backends: zaatarOnly, RhoLin: 2, Rho: 2, NoCommitment: true}
	_, err := openSession(context.Background(), client, hello, clientOpts{})
	var rErr *RemoteError
	if !errors.As(err, &rErr) || rErr.Phase != "hello" {
		t.Fatalf("err = %v, want a hello-phase RemoteError", err)
	}
	if h := <-got; h.Source != "" || len(h.SourceHash) != sha256.Size || h.Version != MaxProtocolVersion {
		t.Fatalf("client sent %d source bytes, a %d-byte hash, v%d; want a v%d hash-only hello",
			len(h.Source), len(h.SourceHash), h.Version, MaxProtocolVersion)
	}
}

// TestPinnedV2ClientAgainstV3Server: a client from before hash-first hellos
// sends its full source stamped v2. The server refuses it with the version
// it speaks, before any compile — so, unlike when v2 was served, the
// session does not warm the program cache.
func TestPinnedV2ClientAgainstV3Server(t *testing.T) {
	svc, reg := testService(ServiceOptions{Workers: 2})
	client, errCh := servicePipe(svc)
	defer client.Close()
	cc := newTimedCodec(client, 5*time.Second)
	if err := cc.send(Hello{Source: sessionSrc, Backends: zaatarOnly, RhoLin: 2, Rho: 2, NoCommitment: true, Version: 2}); err != nil {
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
	if err := <-errCh; !errors.As(err, &vErr) || vErr.Version != 2 || vErr.Max != MaxProtocolVersion {
		t.Fatalf("server err = %v, want *ProtocolVersionError{2, %d}", err, MaxProtocolVersion)
	}
	if got := reg.Counter(MetricCacheMisses).Value(); got != 0 {
		t.Fatalf("a refused v2 session compiled its program (%d cache misses)", got)
	}
}

// TestConcurrentColdCompileSingleflight races hash-first sessions at a
// cold service: exactly one session is asked to upload and
// exactly one compile runs; everyone else rides the singleflight entry.
func TestConcurrentColdCompileSingleflight(t *testing.T) {
	const n = 6
	svc, reg := testService(ServiceOptions{Workers: 2, MaxSessions: n})
	hello := Hello{Source: sessionSrc, Backends: zaatarOnly, RhoLin: 2, Rho: 2, NoCommitment: true}
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			client, errCh := servicePipe(svc)
			res, err := oneBatch(context.Background(), client, hello,
				clientOpts{Seed: []byte{byte(i)}}, instances(int64(i+1)))
			if err == nil && !res.AllAccepted() {
				err = errors.New("batch rejected")
			}
			if serr := <-errCh; err == nil && serr != nil {
				err = serr
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
	}
	if got := reg.Counter(MetricCacheMisses).Value(); got != 1 {
		t.Fatalf("cache misses = %d, want 1 (one compile for %d sessions)", got, n)
	}
	if got := reg.Counter(MetricCacheHits).Value(); got != n-1 {
		t.Fatalf("cache hits = %d, want %d", got, n-1)
	}
	if got := reg.CounterVec(MetricHelloSourceSkipped, LabelProgramHash).Total(); got != n-1 {
		t.Fatalf("skipped uploads = %d, want %d (only the singleflight winner uploads)", got, n-1)
	}
}

// TestUploaderFailureDoesNotFailWaiters: client A's hash-first hello misses
// the cache, so A wins the singleflight entry and is asked for the source;
// an honest client B then opens a session for the same program and waits
// on A's entry. A uploads a tampered source. The refusal is A's alone: B
// looks the program up again, is asked for the source itself, and is
// served.
func TestUploaderFailureDoesNotFailWaiters(t *testing.T) {
	svc, reg := testService(ServiceOptions{Workers: 2})
	clientA, errA := servicePipe(svc)
	defer clientA.Close()
	enc, dec := gob.NewEncoder(clientA), gob.NewDecoder(clientA)
	sum := sha256.Sum256([]byte(sessionSrc))
	if err := enc.Encode(Hello{Version: MaxProtocolVersion, Backends: zaatarOnly, SourceHash: sum[:], RhoLin: 2, Rho: 2, NoCommitment: true}); err != nil {
		t.Fatal(err)
	}
	var ack HelloAck
	if err := dec.Decode(&ack); err != nil {
		t.Fatal(err)
	}
	if !ack.SourceNeeded {
		t.Fatalf("expected SourceNeeded, got %+v", ack)
	}

	type outcome struct {
		res *SessionResult
		err error
	}
	clientB, errB := servicePipe(svc)
	doneB := make(chan outcome, 1)
	go func() {
		res, err := oneBatch(context.Background(), clientB,
			Hello{Source: sessionSrc, Backends: zaatarOnly, RhoLin: 2, Rho: 2, NoCommitment: true},
			clientOpts{Seed: []byte("b")}, instances(4, 9))
		doneB <- outcome{res, err}
	}()
	// B's lookup is the service's only cache hit: once it counts, B is
	// waiting on A's entry.
	deadline := time.Now().Add(10 * time.Second)
	for reg.Counter(MetricCacheHits).Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("B never reached the singleflight entry")
		}
		time.Sleep(time.Millisecond)
	}

	if err := enc.Encode(SourceMsg{Source: sessionSrc + "\n// tampered"}); err != nil {
		t.Fatal(err)
	}
	if err := dec.Decode(&ack); err != nil {
		t.Fatal(err)
	}
	if ack.Err == "" {
		t.Fatal("server accepted a source that does not match the claimed hash")
	}
	if err := <-errA; !errors.Is(err, ErrMalformedHello) {
		t.Fatalf("uploader's server err = %v, want ErrMalformedHello", err)
	}

	b := <-doneB
	if b.err != nil {
		t.Fatalf("waiter B failed with the uploader's error: %v", b.err)
	}
	checkBatch(t, b.res, []int64{4, 9})
	if err := <-errB; err != nil {
		t.Fatalf("waiter's server: %v", err)
	}
	if got := reg.Counter(MetricCacheMisses).Value(); got != 2 {
		t.Fatalf("cache misses = %d, want 2 (A's failed build, then B's)", got)
	}
	if got := reg.CounterVec(MetricHelloSourceSkipped, LabelProgramHash).Total(); got != 0 {
		t.Fatalf("skipped uploads = %d, want 0 (B uploaded its own source)", got)
	}
}

// TestMaxSourceBytes covers the configurable source bound on both ingestion
// paths: a source inline in the hello and a source upload.
func TestMaxSourceBytes(t *testing.T) {
	hello := Hello{Source: sessionSrc, Backends: zaatarOnly, RhoLin: 1, Rho: 1, NoCommitment: true, Version: MaxProtocolVersion}
	if err := hello.validate(16); !errors.Is(err, ErrSourceTooLarge) {
		t.Fatalf("validate: %v, want ErrSourceTooLarge", err)
	}
	if err := hello.validate(0); err != nil {
		t.Fatalf("default limit rejected a tiny source: %v", err)
	}

	t.Run("hello", func(t *testing.T) {
		svc, _ := testService(ServiceOptions{Workers: 1, MaxSourceBytes: 16})
		client, errCh := servicePipe(svc)
		defer client.Close()
		cc := newTimedCodec(client, 5*time.Second)
		if err := cc.send(hello); err != nil {
			t.Fatal(err)
		}
		var ack HelloAck
		if err := cc.recv(&ack); err != nil {
			t.Fatal(err)
		}
		if ack.Err == "" {
			t.Fatal("server accepted an oversized inline source")
		}
		if err := <-errCh; !errors.Is(err, ErrSourceTooLarge) {
			t.Fatalf("server err = %v, want ErrSourceTooLarge", err)
		}
	})
	t.Run("upload", func(t *testing.T) {
		svc, _ := testService(ServiceOptions{Workers: 1, MaxSourceBytes: 16})
		client, errCh := servicePipe(svc)
		_, err := oneBatch(context.Background(), client, hello, clientOpts{}, instances(2))
		var rErr *RemoteError
		if !errors.As(err, &rErr) || rErr.Phase != "hello" {
			t.Fatalf("client err = %v, want hello-phase RemoteError", err)
		}
		if err := <-errCh; !errors.Is(err, ErrSourceTooLarge) {
			t.Fatalf("server err = %v, want ErrSourceTooLarge", err)
		}
	})
}

// TestSourceUploadHashMismatch speaks the wire by hand and uploads a source
// that does not match the hello's digest; the server must refuse to compile
// it.
func TestSourceUploadHashMismatch(t *testing.T) {
	svc, _ := testService(ServiceOptions{Workers: 1})
	client, errCh := servicePipe(svc)
	defer client.Close()
	enc, dec := gob.NewEncoder(client), gob.NewDecoder(client)

	claimed := sha256.Sum256([]byte(sessionSrc))
	h := Hello{Version: MaxProtocolVersion, Backends: zaatarOnly, SourceHash: claimed[:], RhoLin: 1, Rho: 1, NoCommitment: true}
	if err := enc.Encode(h); err != nil {
		t.Fatal(err)
	}
	var ack HelloAck
	if err := dec.Decode(&ack); err != nil {
		t.Fatal(err)
	}
	if !ack.SourceNeeded {
		t.Fatalf("expected SourceNeeded, got %+v", ack)
	}
	if err := enc.Encode(SourceMsg{Source: sessionSrc + "\n// tampered"}); err != nil {
		t.Fatal(err)
	}
	if err := dec.Decode(&ack); err != nil {
		t.Fatal(err)
	}
	if ack.Err == "" {
		t.Fatal("server accepted a source that does not match the claimed hash")
	}
	if err := <-errCh; !errors.Is(err, ErrMalformedHello) {
		t.Fatalf("server err = %v, want ErrMalformedHello", err)
	}

	// Mismatch inside one hello is caught by validation directly.
	bad := Hello{Source: sessionSrc, Backends: zaatarOnly, SourceHash: make([]byte, sha256.Size), Version: MaxProtocolVersion}
	if err := bad.validate(0); !errors.Is(err, ErrMalformedHello) {
		t.Fatalf("validate: %v, want ErrMalformedHello", err)
	}
}

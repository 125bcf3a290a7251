package transport

import (
	"context"
	"encoding/gob"
	"errors"
	"math/big"
	"strings"
	"testing"

	"zaatar/internal/obs"
	"zaatar/internal/pcp"
)

// sessionSrc (transport_test.go) is pure arithmetic, so it stratifies and
// every registered backend can serve it.

func negotiationBatch() [][]*big.Int {
	return [][]*big.Int{{big.NewInt(10)}, {big.NewInt(-4)}}
}

func checkNegotiationOutputs(t *testing.T, res *SessionResult) {
	t.Helper()
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

// TestNegotiateSumcheck: a client offering [sumcheck, zaatar] against a
// full server lands on sumcheck — and runs the whole session without any
// ElGamal group configured, because the lane needs no commitment crypto.
func TestNegotiateSumcheck(t *testing.T) {
	svc, reg := testService(ServiceOptions{Workers: 2})
	conn, errCh := servicePipe(svc)
	hello := Hello{
		Source:   sessionSrc,
		RhoLin:   2,
		Rho:      2,
		Backends: []string{pcp.BackendSumcheck, pcp.BackendZaatar},
	}
	sess, err := openSession(context.Background(), conn, hello, clientOpts{Seed: []byte("neg")})
	if err != nil {
		t.Fatal(err)
	}
	if got := sess.Backend(); got != pcp.BackendSumcheck {
		t.Fatalf("negotiated %q, want sumcheck", got)
	}
	res, err := sess.RunBatch(context.Background(), negotiationBatch())
	if err != nil {
		t.Fatal(err)
	}
	checkNegotiationOutputs(t, res)
	// Keep-alive second batch exercises the transcript-lane reseed path.
	res, err = sess.RunBatch(context.Background(), negotiationBatch())
	if err != nil {
		t.Fatal(err)
	}
	checkNegotiationOutputs(t, res)
	sess.Close()
	if err := <-errCh; err != nil {
		t.Fatalf("server: %v", err)
	}
	if got := reg.CounterVec(MetricSessions, LabelBackend).With(pcp.BackendSumcheck).Value(); got != 1 {
		t.Fatalf("transport.sessions{backend=sumcheck} = %d, want 1", got)
	}
}

// TestNegotiateDegrade: against a server built without the sum-check
// backend, the same offer degrades to zaatar.
func TestNegotiateDegrade(t *testing.T) {
	svc, reg := testService(ServiceOptions{
		Workers:  2,
		Backends: []string{pcp.BackendZaatar, pcp.BackendGinger},
	})
	conn, errCh := servicePipe(svc)
	hello := Hello{
		Source:       sessionSrc,
		RhoLin:       2,
		Rho:          2,
		NoCommitment: true,
		Backends:     []string{pcp.BackendSumcheck, pcp.BackendZaatar},
	}
	sess, err := openSession(context.Background(), conn, hello, clientOpts{Seed: []byte("deg")})
	if err != nil {
		t.Fatal(err)
	}
	if got := sess.Backend(); got != pcp.BackendZaatar {
		t.Fatalf("negotiated %q, want zaatar", got)
	}
	res, err := sess.RunBatch(context.Background(), negotiationBatch())
	if err != nil {
		t.Fatal(err)
	}
	checkNegotiationOutputs(t, res)
	sess.Close()
	if err := <-errCh; err != nil {
		t.Fatalf("server: %v", err)
	}
	if got := reg.CounterVec(MetricSessions, LabelBackend).With(pcp.BackendZaatar).Value(); got != 1 {
		t.Fatalf("transport.sessions{backend=zaatar} = %d, want 1", got)
	}
}

// TestNegotiateLegacyGingerHello: a peer from before backend negotiation
// named its backend with a Ginger bool and offered no Backends list. Such a
// hello is malformed: the client refuses to send one, and a server
// receiving it raw refuses it before any compile.
func TestNegotiateLegacyGingerHello(t *testing.T) {
	hello := Hello{Source: sessionSrc, RhoLin: 1, Rho: 1, NoCommitment: true}
	if _, err := openSession(context.Background(), nil, hello, clientOpts{}); !errors.Is(err, ErrMalformedHello) {
		t.Fatalf("client: err = %v, want ErrMalformedHello", err)
	}

	svc, reg := testService(ServiceOptions{Workers: 2})
	client, errCh := servicePipe(svc)
	defer client.Close()
	enc, dec := gob.NewEncoder(client), gob.NewDecoder(client)
	legacy := struct {
		Source       string
		Ginger       bool
		RhoLin, Rho  int
		NoCommitment bool
		Version      int
	}{sessionSrc, true, 1, 1, true, MaxProtocolVersion}
	if err := enc.Encode(legacy); err != nil {
		t.Fatal(err)
	}
	var ack HelloAck
	if err := dec.Decode(&ack); err != nil {
		t.Fatal(err)
	}
	if ack.Err == "" || ack.Backend != "" {
		t.Fatalf("ack %+v, want a refusal", ack)
	}
	if err := <-errCh; !errors.Is(err, ErrMalformedHello) {
		t.Fatalf("server err = %v, want ErrMalformedHello", err)
	}
	if got := reg.Counter(MetricCacheMisses).Value(); got != 0 {
		t.Fatalf("refused hello reached the program cache (%d misses)", got)
	}
}

// TestNegotiateNoCommonBackend: an offer the server cannot meet fails the
// hello with a remote error naming the mismatch.
func TestNegotiateNoCommonBackend(t *testing.T) {
	svc, _ := testService(ServiceOptions{Workers: 2, Backends: []string{pcp.BackendGinger}})
	conn, errCh := servicePipe(svc)
	hello := Hello{Source: sessionSrc, RhoLin: 1, Rho: 1, Backends: []string{pcp.BackendSumcheck}}
	_, err := openSession(context.Background(), conn, hello, clientOpts{})
	if err == nil {
		t.Fatal("session succeeded with no common backend")
	}
	var re *RemoteError
	if !errors.As(err, &re) || re.Phase != "hello" {
		t.Fatalf("err = %v, want hello-phase RemoteError", err)
	}
	if !strings.Contains(re.Msg, "no common proof backend") {
		t.Fatalf("err = %v, want no-common-backend", err)
	}
	conn.Close()
	if err := <-errCh; err == nil {
		t.Fatal("server reported success for a failed negotiation")
	}
}

// TestHelloBackendsValidation: oversized or malformed offers are rejected
// before any work happens.
func TestHelloBackendsValidation(t *testing.T) {
	base := Hello{Source: sessionSrc, Version: MaxProtocolVersion}
	tooMany := base
	tooMany.Backends = make([]string, maxBackends+1)
	for i := range tooMany.Backends {
		tooMany.Backends[i] = "b"
	}
	if err := tooMany.validate(0); !errors.Is(err, ErrMalformedHello) {
		t.Fatalf("oversized offer: %v", err)
	}
	empty := base
	empty.Backends = []string{""}
	if err := empty.validate(0); !errors.Is(err, ErrMalformedHello) {
		t.Fatalf("empty name: %v", err)
	}
	long := base
	long.Backends = []string{strings.Repeat("x", maxBackendBytes+1)}
	if err := long.validate(0); !errors.Is(err, ErrMalformedHello) {
		t.Fatalf("long name: %v", err)
	}
	none := base
	if err := none.validate(0); !errors.Is(err, ErrMalformedHello) {
		t.Fatalf("no offer: %v", err)
	}
	ok := base
	ok.Backends = []string{pcp.BackendSumcheck, pcp.BackendZaatar}
	if err := ok.validate(0); err != nil {
		t.Fatalf("valid offer rejected: %v", err)
	}
}

// TestCacheKeyedByBackend: the same source negotiated under two backends
// builds two cache entries (regression for the key and the config deriving
// the backend in two places).
func TestCacheKeyedByBackend(t *testing.T) {
	svc, reg := testService(ServiceOptions{Workers: 2, Obs: obs.NewRegistry()})
	for _, offer := range [][]string{
		{pcp.BackendSumcheck},
		{pcp.BackendZaatar},
		{pcp.BackendSumcheck}, // repeat: must hit, not rebuild
	} {
		conn, errCh := servicePipe(svc)
		hello := Hello{Source: sessionSrc, RhoLin: 1, Rho: 1, NoCommitment: true, Backends: offer}
		sess, err := openSession(context.Background(), conn, hello, clientOpts{Seed: []byte("ck")})
		if err != nil {
			t.Fatalf("%v: %v", offer, err)
		}
		if got := sess.Backend(); got != offer[0] {
			t.Fatalf("negotiated %q, want %q", got, offer[0])
		}
		res, err := sess.RunBatch(context.Background(), negotiationBatch())
		if err != nil {
			t.Fatalf("%v: %v", offer, err)
		}
		checkNegotiationOutputs(t, res)
		sess.Close()
		if err := <-errCh; err != nil {
			t.Fatalf("server: %v", err)
		}
	}
	if misses := reg.Counter(MetricCacheMisses).Value(); misses != 2 {
		t.Fatalf("cache misses = %d, want 2 (one per backend)", misses)
	}
	if hits := reg.Counter(MetricCacheHits).Value(); hits != 1 {
		t.Fatalf("cache hits = %d, want 1", hits)
	}
}

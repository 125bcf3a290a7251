package transport

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

// TestLabeledTransportMetrics is the acceptance check for the per-tenant
// metric breakdown: after a run, the Prometheus exposition shows
// transport.batches and transport.instances broken out by backend and
// program_hash, and transport.sessions by backend.
func TestLabeledTransportMetrics(t *testing.T) {
	svc, reg := testService(ServiceOptions{Workers: 2})
	client, errCh := servicePipe(svc)
	hello := Hello{Source: sessionSrc, Backends: zaatarOnly, RhoLin: 2, Rho: 2, NoCommitment: true}
	res, err := oneBatch(context.Background(), client, hello, clientOpts{Seed: []byte("lm"), Obs: reg}, instances(10))
	if err != nil {
		t.Fatal(err)
	}
	checkBatch(t, res, []int64{10})
	if err := <-errCh; err != nil {
		t.Fatalf("server: %v", err)
	}

	phash := ProgramHash(sessionSrc)
	backend := "zaatar"

	var prom bytes.Buffer
	if err := reg.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	out := prom.String()
	for _, want := range []string{
		// Unlabeled aggregates survive alongside the labeled series, under
		// one TYPE header per name.
		"zaatar_transport_batches_total 1",
		`zaatar_transport_batches_total{backend="` + backend + `",program_hash="` + phash + `"} 1`,
		`zaatar_transport_instances_total{backend="` + backend + `",program_hash="` + phash + `"} 1`,
		`zaatar_transport_sessions_total{backend="` + backend + `"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus exposition missing %q:\n%s", want, out)
		}
	}
	if strings.Count(out, "# TYPE zaatar_transport_batches_total counter") != 1 {
		t.Fatalf("transport.batches TYPE header not merged:\n%s", out)
	}

	// The labeled vc phase histograms recorded on the client side under the
	// same registry.
	if !strings.Contains(out, `zaatar_vc_phase_seconds_count{phase="verify",backend="`+backend+`"}`) {
		t.Fatalf("vc.phase labeled histogram missing:\n%s", out)
	}
}

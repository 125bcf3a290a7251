package transport

import (
	"bytes"
	"context"
	"strconv"
	"strings"
	"testing"

	"zaatar/internal/obs"
)

// gaugeValue scrapes reg and returns the named gauge's sample.
func gaugeValue(t *testing.T, reg *obs.Registry, name string) float64 {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	pn := "zaatar_" + strings.ReplaceAll(name, ".", "_")
	if !strings.Contains(buf.String(), "# TYPE "+pn+" gauge\n") {
		t.Fatalf("%s is not a gauge in the scrape:\n%s", name, buf.String())
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if v, ok := strings.CutPrefix(line, pn+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatal(err)
			}
			return f
		}
	}
	t.Fatalf("gauge %s has no sample:\n%s", name, buf.String())
	return 0
}

// TestLabeledTransportMetrics is the acceptance check for the per-tenant
// metric breakdown: after a run, the Prometheus exposition shows
// transport.batches and transport.instances broken out by backend and
// program_hash, and transport.sessions by backend — and only so: no
// unlabeled twin sample sits in the same family.
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
		`zaatar_transport_batches_total{backend="` + backend + `",program_hash="` + phash + `"} 1`,
		`zaatar_transport_instances_total{backend="` + backend + `",program_hash="` + phash + `"} 1`,
		`zaatar_transport_sessions_total{backend="` + backend + `"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus exposition missing %q:\n%s", want, out)
		}
	}
	for _, twin := range []string{"zaatar_transport_batches_total ", "zaatar_transport_instances_total ", "zaatar_transport_sessions_total "} {
		if strings.Contains(out, "\n"+twin) {
			t.Fatalf("unlabeled %q sample beside the labeled series:\n%s", twin, out)
		}
	}

	// The labeled vc phase histograms recorded on the client side under the
	// same registry.
	if !strings.Contains(out, `zaatar_vc_phase_seconds_count{phase="verify",backend="`+backend+`"}`) {
		t.Fatalf("vc.phase labeled histogram missing:\n%s", out)
	}
}

package zaatar

import (
	"bytes"
	"context"
	"math/big"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"zaatar/internal/obs"
)

const surfaceGoldenPath = "testdata/metrics_surface.golden"

// TestMetricSurface pins the metric surface: every family that zaatar.Run,
// a Dial'ed session against a WithStore server (cold, then warm) and a
// two-worker DialFarm record, each path into registries of its own, as
// "family type label-keys" lines. Every family has one # TYPE line, never
// mixes unlabeled and labeled samples, and is documented in
// docs/PROTOCOL.md. Regenerate with: go test -run TestMetricSurface -update
func TestMetricSurface(t *testing.T) {
	const src = `input x : int32; output y : int32; y = x - 3;`
	batch := [][]*big.Int{{big.NewInt(10)}, {big.NewInt(20)}, {big.NewInt(30)}, {big.NewInt(40)}}
	var regs []*obs.Registry
	newReg := func() *obs.Registry {
		r := obs.NewRegistry()
		regs = append(regs, r)
		return r
	}
	check := func(err error, accepted bool) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if !accepted {
			t.Fatal("batch rejected")
		}
	}

	// In process, with the commitment on so the kernels record too.
	prog, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(prog, batch, WithParams(1, 1), WithGroup(testGroup(t)), WithSeed([]byte("surface")), WithMetrics(newReg()))
	check(err, err == nil && res.AllAccepted())

	// A Dial'ed session against a store-backed server, cold then warm.
	dir := t.TempDir()
	for _, seed := range []string{"cold", "warm"} {
		addr, stop := serveFor(t, Serve, newReg(), WithStore(dir))
		c, err := Dial(context.Background(), addr, src, WithParams(1, 1), WithoutCommitment(), WithSeed([]byte(seed)), WithMetrics(newReg()))
		if err != nil {
			t.Fatal(err)
		}
		sres, err := c.RunBatch(context.Background(), batch)
		check(err, err == nil && sres.AllAccepted())
		c.Close()
		stop()
	}

	// A two-worker farm.
	a1, stop1 := serveFor(t, ServeWorker, newReg())
	a2, stop2 := serveFor(t, ServeWorker, newReg())
	c, err := DialFarm(context.Background(), []string{a1, a2}, src, WithParams(1, 1), WithoutCommitment(), WithSeed([]byte("farm")), WithMetrics(newReg()))
	if err != nil {
		t.Fatal(err)
	}
	fres, err := c.RunBatch(context.Background(), batch)
	check(err, err == nil && fres.AllAccepted())
	c.Close()
	stop1()
	stop2()

	surface := map[string]bool{}
	for _, r := range regs {
		for _, line := range surfaceLines(t, scrape(t, r)) {
			surface[line] = true
		}
	}
	lines := make([]string, 0, len(surface))
	for line := range surface {
		lines = append(lines, line)
	}
	sort.Strings(lines)
	got := strings.Join(lines, "\n") + "\n"
	if *update {
		if err := os.MkdirAll(filepath.Dir(surfaceGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(surfaceGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(surfaceGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("metric surface drifted from %s (regenerate with -update):\n--- got ---\n%s--- want ---\n%s", surfaceGoldenPath, got, want)
	}

	// The process-wide registry holds what the kernels record.
	defaults := surfaceLines(t, scrape(t, obs.Default()))
	for _, prefix := range []string{"zaatar_field_mul_", "zaatar_elgamal_"} {
		found := false
		for _, line := range defaults {
			found = found || strings.HasPrefix(line, prefix)
		}
		if !found {
			t.Errorf("obs.Default() has no %s* family:\n%s", prefix, strings.Join(defaults, "\n"))
		}
	}

	documented := documentedFamilies(t)
	for _, line := range append(lines, defaults...) {
		fields := strings.Fields(line)
		base := strings.TrimSuffix(strings.TrimSuffix(fields[0], "_total"), "_seconds")
		if fields[1] == "gauge" {
			base = fields[0]
		}
		if !documented[base] {
			t.Errorf("family %s is not documented in docs/PROTOCOL.md", fields[0])
		}
	}
}

// serveFor runs serve, recording into reg, on a loopback listener until the
// returned stop is called. stop lets the closed clients' connections end
// cleanly (transport.conns.open back at 0), then cancels serve and waits
// for it to drain.
func serveFor(t *testing.T, serve func(context.Context, net.Listener, ...ServerOption) error, reg *obs.Registry, opts ...ServerOption) (string, func()) {
	t.Helper()
	opts = append(opts, WithServerMetrics(reg))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- serve(ctx, ln, opts...) }()
	return ln.Addr().String(), func() {
		for deadline := time.Now().Add(5 * time.Second); !strings.Contains(scrape(t, reg), "\nzaatar_transport_conns_open 0\n"); {
			if time.Now().After(deadline) {
				t.Fatal("connections still open after the clients closed")
			}
			time.Sleep(time.Millisecond)
		}
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("serve: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Error("serve did not drain after cancel")
		}
	}
}

func scrape(t *testing.T, r *obs.Registry) string {
	t.Helper()
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

var labelKeyRE = regexp.MustCompile(`([a-zA-Z_][a-zA-Z0-9_]*)="(?:[^"\\]|\\.)*"`)

// surfaceLines reduces a scrape to one "family type label-keys" line per
// family, failing the test on a family typed twice, a sample outside its
// family, or a family whose samples disagree on their label keys — an
// unlabeled sample beside labeled ones included.
func surfaceLines(t *testing.T, scrape string) []string {
	t.Helper()
	var lines []string
	typed := map[string]bool{}
	fam, typ, keys := "", "", ""
	seen := false
	flush := func() {
		if fam != "" {
			lines = append(lines, strings.TrimSpace(fam+" "+typ+" "+keys))
		}
	}
	for _, line := range strings.Split(strings.TrimSpace(scrape), "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			flush()
			fam, typ, _ = strings.Cut(rest, " ")
			if typed[fam] {
				t.Errorf("family %s has two # TYPE lines", fam)
			}
			typed[fam], keys, seen = true, "", false
			continue
		}
		name, labels, _ := strings.Cut(line[:strings.LastIndexByte(line, ' ')], "{")
		if name != fam && !strings.HasPrefix(name, fam+"_") {
			t.Errorf("sample %q outside family %s", line, fam)
		}
		var ks []string
		for _, m := range labelKeyRE.FindAllStringSubmatch(labels, -1) {
			if m[1] != "le" {
				ks = append(ks, m[1])
			}
		}
		if k := strings.Join(ks, ","); !seen {
			keys, seen = k, true
		} else if k != keys {
			t.Errorf("family %s mixes label keys {%s} and {%s}", fam, keys, k)
		}
	}
	flush()
	return lines
}

// documentedFamilies maps every dotted metric name in docs/PROTOCOL.md the
// way the exposition writer does: "zaatar_" prefix, dots to underscores.
func documentedFamilies(t *testing.T) map[string]bool {
	t.Helper()
	doc, err := os.ReadFile("docs/PROTOCOL.md")
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, m := range regexp.MustCompile(`[a-z][a-z0-9_]*(?:\.[a-z0-9_]+)+`).FindAllString(string(doc), -1) {
		names["zaatar_"+strings.ReplaceAll(m, ".", "_")] = true
	}
	return names
}

package experiments

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"sync/atomic"

	"zaatar/internal/elgamal"
	"zaatar/internal/farm"
	"zaatar/internal/field"
	"zaatar/internal/obs"
	"zaatar/internal/obs/trace"
	"zaatar/internal/pcp"
	"zaatar/internal/store"
	"zaatar/internal/transport"
)

// StoreResult quantifies the artifact-store tentpole: session-open latency
// across the three warmth tiers (cold compile, disk-warm restart, memory-
// warm LRU), the wire bytes a hash-first hello saves against a full-source
// one, and the span/counter evidence that the disk-warm restart really
// compiled nothing.
type StoreResult struct {
	Benchmark string `json:"benchmark"`
	Beta      int    `json:"beta"`

	// ColdOpenMs opens the first session ever: empty store, empty LRU — the
	// server asks for the source and compiles it. DiskWarmOpenMs opens the
	// first session of a *restarted* server (fresh process state, bundle on
	// disk): the program loads from the store. MemWarmOpenMs opens a repeat
	// session on a running server: the LRU serves it.
	ColdOpenMs     float64 `json:"cold_open_ms"`
	DiskWarmOpenMs float64 `json:"disk_warm_open_ms"`
	MemWarmOpenMs  float64 `json:"mem_warm_open_ms"`
	// ColdVsDiskSpeedup is ColdOpenMs / DiskWarmOpenMs — the warm-restart
	// win on the whole session-open wall (which also carries the
	// store-independent client-side compile and key generation).
	ColdVsDiskSpeedup float64 `json:"cold_vs_disk_speedup"`

	// The server-side program-acquisition path, from the session traces:
	// ColdAcquireMs sums the cold session's prover.compile and
	// prover.preprocess spans; DiskAcquireMs is the disk-warm session's
	// prover.store.load span. Their ratio isolates what the store replaces.
	ColdAcquireMs            float64 `json:"cold_acquire_ms"`
	DiskAcquireMs            float64 `json:"disk_acquire_ms"`
	ColdVsDiskAcquireSpeedup float64 `json:"cold_vs_disk_acquire_speedup"`

	// BundleBytes is the on-disk size of the program's bundle. SourceBytes
	// is the program source a hash-first hello does not carry.
	// HelloBytesHashFirst / HelloBytesFull are the measured client→server
	// bytes during session open against the disk-warm server (hash only)
	// and the cold one (hash, then the source upload it asks for).
	BundleBytes         int64 `json:"bundle_bytes"`
	SourceBytes         int   `json:"source_bytes"`
	HelloBytesHashFirst int64 `json:"hello_bytes_hash_first"`
	HelloBytesFull      int64 `json:"hello_bytes_full"`

	// DiskWarmCompileSpans / DiskWarmPreprocessSpans count the compile and
	// preprocess spans in the disk-warm session's stitched trace — both must
	// be zero for the warm-restart claim to hold. DiskWarmStoreLoadSpans
	// must be one.
	DiskWarmCompileSpans    int `json:"disk_warm_compile_spans"`
	DiskWarmPreprocessSpans int `json:"disk_warm_preprocess_spans"`
	DiskWarmStoreLoadSpans  int `json:"disk_warm_store_load_spans"`

	// StoreHits/StoreMisses are the restarted service's transport.store.*
	// counters (one hit, zero misses when the bundle served).
	StoreHits   int64 `json:"store_hits"`
	StoreMisses int64 `json:"store_misses"`
}

// countConn counts the bytes the client writes (its hello traffic during
// session open is what the hash-first exchange shrinks).
type countConn struct {
	net.Conn
	n *int64
}

func (c countConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	atomic.AddInt64(c.n, int64(n))
	return n, err
}

// RunStore measures the content-addressed artifact store on the scale's
// first benchmark: a cold service populates the store, a second service
// over the same directory emulates a restarted server, and a third session
// measures the memory-warm tier on the running service.
func RunStore(o Options, beta int) (*StoreResult, error) {
	if beta < 1 {
		beta = 1
	}
	bench := Benchmarks(o.Scale)[0]
	rng := rand.New(rand.NewSource(o.Seed))
	batch := genBatch(bench, rng, beta)

	dir, err := os.MkdirTemp("", "zaatar-store-bench-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	hello := transport.Hello{
		Source:       bench.Source,
		Field220:     bench.Field == field.F220(),
		Backends:     []string{pcp.BackendZaatar},
		RhoLin:       o.Params.RhoLin,
		Rho:          o.Params.Rho,
		NoCommitment: !o.Crypto,
	}
	fopts := farm.Options{Seed: []byte(fmt.Sprintf("store-%d", o.Seed))}
	if o.Crypto {
		fopts.Group = elgamal.GroupFor(bench.Field)
	}

	newSvc := func() (*transport.Service, *obs.Registry, error) {
		st, err := store.Open(dir)
		if err != nil {
			return nil, nil, err
		}
		reg := obs.NewRegistry()
		svc := transport.NewService(transport.ServiceOptions{
			Workers: o.Workers,
			Obs:     reg,
			Store:   st,
		})
		return svc, reg, nil
	}
	// open runs one full session (open + one batch + close) against svc and
	// returns the session-open wall plus the client→server bytes of the
	// open.
	open := func(ctx context.Context, svc *transport.Service) (openMs float64, wireBytes int64, err error) {
		client, server := net.Pipe()
		go func() { _ = svc.ServeConn(context.Background(), server) }()
		var sess *farm.Farm
		ms, err := wallMs(func() (err error) {
			sess, err = farm.New(ctx, []string{"prover"}, []net.Conn{countConn{client, &wireBytes}}, hello, fopts)
			return err
		})
		if err != nil {
			return 0, 0, err
		}
		open := atomic.LoadInt64(&wireBytes)
		if _, err := sess.RunBatch(ctx, batch); err != nil {
			sess.Close()
			return 0, 0, err
		}
		if err := sess.Close(); err != nil {
			return 0, 0, err
		}
		return ms, open, nil
	}

	res := &StoreResult{Benchmark: bench.Name, Beta: beta, SourceBytes: len(bench.Source)}
	ctx := context.Background()

	// Cold: empty store, empty LRU — the hash misses twice, the server asks
	// for the source and compiles.
	cold, _, err := newSvc()
	if err != nil {
		return nil, err
	}
	coldRec := trace.NewRecorder(4096)
	coldCtx := trace.NewContext(ctx, trace.New(coldRec, "verifier"))
	res.ColdOpenMs, res.HelloBytesFull, err = open(coldCtx, cold)
	if err != nil {
		return nil, err
	}
	for _, r := range coldRec.Snapshot() {
		if r.Name == "prover.compile" || r.Name == "prover.preprocess" {
			res.ColdAcquireMs += float64(r.Dur) / 1e6
		}
	}
	cold.FlushStore() // the write-back is async; a real restart would have drained it

	key := store.KeyFor(bench.Source, bench.Field.Name(), pcp.BackendZaatar)
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	if fi, err := os.Stat(st.Path(key)); err == nil {
		res.BundleBytes = fi.Size()
	}

	// Disk-warm restart: a fresh service over the same directory. The trace
	// proves what did (store load) and did not (compile, preprocess) run.
	warm, reg, err := newSvc()
	if err != nil {
		return nil, err
	}
	rec := trace.NewRecorder(4096)
	tctx := trace.NewContext(ctx, trace.New(rec, "verifier"))
	res.DiskWarmOpenMs, res.HelloBytesHashFirst, err = open(tctx, warm)
	if err != nil {
		return nil, err
	}
	for _, r := range rec.Snapshot() {
		switch r.Name {
		case "prover.compile":
			res.DiskWarmCompileSpans++
		case "prover.preprocess":
			res.DiskWarmPreprocessSpans++
		case "prover.store.load":
			res.DiskWarmStoreLoadSpans++
			res.DiskAcquireMs += float64(r.Dur) / 1e6
		}
	}
	res.StoreHits = reg.CounterVec(transport.MetricStoreHits, transport.LabelBackend, transport.LabelProgramHash).Total()
	res.StoreMisses = reg.Counter(transport.MetricStoreMisses).Value()
	if res.DiskWarmOpenMs > 0 {
		res.ColdVsDiskSpeedup = res.ColdOpenMs / res.DiskWarmOpenMs
	}
	if res.DiskAcquireMs > 0 {
		res.ColdVsDiskAcquireSpeedup = res.ColdAcquireMs / res.DiskAcquireMs
	}

	// Memory-warm: a repeat session on the running service (LRU hit).
	res.MemWarmOpenMs, _, err = open(ctx, warm)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// RenderStore prints the artifact-store experiment: the warmth-tier
// session-open latencies, then the wire and disk footprints.
func RenderStore(w io.Writer, r *StoreResult) {
	fmt.Fprintf(w, "artifact store: warm restarts + hash-first hellos (%s, β=%d per batch)\n\n", r.Benchmark, r.Beta)
	tb := newTable("session open", "wall", "program acquisition", "compiles", "store loads")
	tb.add("cold (compile + write-back)", fmtDur(r.ColdOpenMs/1e3), fmtDur(r.ColdAcquireMs/1e3), "1", "—")
	tb.add("disk-warm (restarted server)", fmtDur(r.DiskWarmOpenMs/1e3), fmtDur(r.DiskAcquireMs/1e3),
		fmt.Sprintf("%d", r.DiskWarmCompileSpans), fmt.Sprintf("%d", r.DiskWarmStoreLoadSpans))
	tb.add("memory-warm (LRU)", fmtDur(r.MemWarmOpenMs/1e3), "—", "0", "0")
	tb.render(w)
	fmt.Fprintf(w, "\nwarm-restart speedup: %.1fx on session open, %.1fx on program acquisition (compile+preprocess %s → store load %s)\n",
		r.ColdVsDiskSpeedup, r.ColdVsDiskAcquireSpeedup, fmtDur(r.ColdAcquireMs/1e3), fmtDur(r.DiskAcquireMs/1e3))
	fmt.Fprintf(w, "store counters: %d hit / %d miss\n", r.StoreHits, r.StoreMisses)
	fmt.Fprintf(w, "bundle on disk: %d bytes for %d bytes of source\n", r.BundleBytes, r.SourceBytes)
	fmt.Fprintf(w, "hello bytes on the wire: %d hash-first vs %d with the source upload (%d saved)\n",
		r.HelloBytesHashFirst, r.HelloBytesFull, r.HelloBytesFull-r.HelloBytesHashFirst)
}

// Command zaatar-client is the verifier end of the TCP deployment: it ships
// a computation and a batch of inputs to a zaatar-server prover, runs the
// argument protocol, and reports which instances verified.
//
// Usage:
//
//	zaatar-client -connect localhost:7001 -src prog.zr -inputs "10; 20"
//
// Several provers can share one batch (the paper's distributed prover): a
// -connect list of more than one address dials a prover farm (DialFarm),
// which shards each batch across the workers and requeues a dead worker's
// shards onto the survivors:
//
//	zaatar-client -connect host1:7001,host2:7001 -src prog.zr -inputs "10; 20; 30; 40"
//
// With -batches N the same session carries the batch N times (keep-alive),
// printing the per-batch wall time — the first batch pays the session
// setup, the rest amortize it away.
package main

import (
	"context"
	"flag"
	"fmt"
	"math/big"
	"net/http"
	httppprof "net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"time"

	"zaatar"
	"zaatar/internal/obs"
	"zaatar/internal/obs/trace"
)

func main() {
	var (
		addr     = flag.String("connect", "localhost:7001", "prover address; a comma-separated list shards each batch across a prover farm")
		srcPath  = flag.String("src", "", "path to the mini-SFDL source file")
		inputs   = flag.String("inputs", "", "instance inputs: comma-separated ints; ';' separates instances")
		rhoLin   = flag.Int("rholin", 20, "linearity test iterations")
		rho      = flag.Int("rho", 8, "PCP repetitions")
		f220     = flag.Bool("f220", false, "use the 220-bit field")
		backend  = flag.String("backend", "", "proof backend to offer: auto|zaatar|ginger|sumcheck (empty = zaatar)")
		noCrypto = flag.Bool("nocrypto", false, "skip the ElGamal commitment")
		timeout  = flag.Duration("timeout", 2*time.Minute, "per-message read/write deadline (0 disables)")
		workers  = flag.Int("workers", 1, "verifier parallelism over per-instance checks")
		batches  = flag.Int("batches", 1, "how many times to run the batch over the kept-alive session")
		traceOut = flag.String("trace", "", "write a Chrome trace-event JSON file covering both sides of the session")
		pprofOn  = flag.String("pprof", "", "address to serve net/http/pprof on for the session's lifetime (empty disables)")
		metrics  = flag.String("metrics", "", "address for the HTTP metrics endpoint for the session's lifetime: /metrics in the Prometheus text format (empty disables)")
		logFmt   = flag.String("log-format", "", "emit structured session logs to stderr: text or json (empty disables)")
	)
	flag.Parse()
	if *srcPath == "" || *inputs == "" {
		fmt.Fprintln(os.Stderr, "usage: zaatar-client -connect host:port -src prog.zr -inputs \"1,2; 3,4\"")
		os.Exit(2)
	}
	src, err := os.ReadFile(*srcPath)
	check(err)
	batch, err := parseBatch(*inputs)
	check(err)

	if *metrics != "" {
		mux := http.NewServeMux()
		mux.Handle("/metrics", zaatar.Metrics().Handler())
		go func() {
			if err := http.ListenAndServe(*metrics, mux); err != nil {
				fmt.Fprintln(os.Stderr, "zaatar-client: metrics endpoint:", err)
			}
		}()
	}
	if *pprofOn != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", httppprof.Index)
		mux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", httppprof.Trace)
		go func() {
			if err := http.ListenAndServe(*pprofOn, mux); err != nil {
				fmt.Fprintln(os.Stderr, "zaatar-client: pprof endpoint:", err)
			}
		}()
	}

	// Ctrl-C cancels the session, closing the prover connections.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	// With -trace, the session's trace context rides the hello to every
	// prover, whose spans come back with the responses — one trace covers
	// both sides of the wire.
	var tc *trace.Ctx
	if *traceOut != "" {
		tc = trace.New(trace.NewRecorder(trace.DefaultCapacity), "verifier")
		ctx = trace.NewContext(ctx, tc)
	}

	opts := []zaatar.RunOption{
		zaatar.WithParams(*rhoLin, *rho),
		zaatar.WithWorkers(*workers),
		zaatar.WithIOTimeout(*timeout),
	}
	if *logFmt != "" {
		opts = append(opts, zaatar.WithLogger(obs.NewLogger(os.Stderr, *logFmt)))
	}
	if *f220 {
		opts = append(opts, zaatar.WithField220())
	}
	if *backend != "" {
		opts = append(opts, zaatar.WithBackend(*backend))
	}
	if *noCrypto {
		opts = append(opts, zaatar.WithoutCommitment())
	}
	var provers []string
	for _, a := range strings.Split(*addr, ",") {
		if a = strings.TrimSpace(a); a != "" {
			provers = append(provers, a)
		}
	}
	var client *zaatar.Client
	if len(provers) > 1 {
		client, err = zaatar.DialFarm(ctx, provers, string(src), opts...)
	} else {
		client, err = zaatar.Dial(ctx, strings.Join(provers, ","), string(src), opts...)
	}
	check(err)
	defer client.Close()
	fmt.Fprintf(os.Stderr, "zaatar-client: backend %s, session setup %v\n",
		client.Backend(), client.SetupDuration().Round(time.Microsecond))

	allOK := true
	var res *zaatar.SessionResult
	for b := 0; b < *batches; b++ {
		start := time.Now()
		res, err = client.RunBatch(ctx, batch)
		check(err)
		if *batches > 1 {
			fmt.Fprintf(os.Stderr, "zaatar-client: batch %d/%d in %v\n",
				b+1, *batches, time.Since(start).Round(time.Microsecond))
		}
		if !res.AllAccepted() {
			allOK = false
		}
	}
	check(client.Close())
	if tc != nil {
		check(writeTrace(*traceOut, tc))
		fmt.Fprintf(os.Stderr, "zaatar-client: trace written to %s (%d spans, %d dropped)\n",
			*traceOut, tc.Recorder().Len(), tc.Recorder().Dropped())
	}

	for i := range batch {
		if res.Accepted[i] {
			fmt.Printf("instance %d: ACCEPTED, outputs %v\n", i, res.Outputs[i])
		} else {
			fmt.Printf("instance %d: REJECTED (%s)\n", i, res.Reasons[i])
		}
	}
	if !allOK {
		os.Exit(1)
	}
}

// writeTrace exports the stitched verifier+prover span tree in Chrome
// trace-event form.
func writeTrace(path string, tc *trace.Ctx) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sum := map[string]any{"dropped_spans": tc.Recorder().Dropped()}
	if err := trace.WriteChrome(f, tc.Recorder().Snapshot(), sum); err != nil {
		return err
	}
	return f.Close()
}

func parseBatch(s string) ([][]*big.Int, error) {
	var batch [][]*big.Int
	for _, inst := range strings.Split(s, ";") {
		var in []*big.Int
		for _, tok := range strings.Split(inst, ",") {
			tok = strings.TrimSpace(tok)
			if tok == "" {
				continue
			}
			v, ok := new(big.Int).SetString(tok, 10)
			if !ok {
				return nil, fmt.Errorf("bad input %q", tok)
			}
			in = append(in, v)
		}
		batch = append(batch, in)
	}
	return batch, nil
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "zaatar-client:", err)
		os.Exit(1)
	}
}

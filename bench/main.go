// Command bench is the repository's benchmark: four workloads, the
// end-to-end metrics a user of the system sees, and a layer ledger measured
// from outside the program. README.md in this directory says what each
// metric means and which layer should move which number. Run it from the
// root of the repository through bench/run.sh, which builds it first:
//
//	bash bench/run.sh -seed 1             every workload, untraced
//	bash bench/run.sh -seed 1 -trace 1    the same, then the traced pass
//	bash bench/run.sh -repeat 10          ten untraced suites, each metric's spread
//	bash bench/run.sh --workload apsp.local --seed 3 --seconds 20 --trace 0
//
// With -workload it runs that one workload in this process and prints
// "workload metric value unit" lines, "#" lines that are not metrics, and a
// JSON result on the last line. Without, it runs every workload in a child
// process of its own, so peak memory is per workload.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"time"
)

// procs pins GOMAXPROCS: the cores of the box the benchmark was sized on.
const procs = 2

func main() {
	var (
		name    = flag.String("workload", "", "run this one workload in this process")
		seed    = flag.Int64("seed", 1, "seed of the input generators")
		secs    = flag.Float64("seconds", 20, "how long each workload's timed loop measures")
		trace   = flag.Int("trace", 0, "1 runs the traced pass: per-layer metrics, ledger and trace file")
		repeats = flag.Int("repeat", 0, "run the untraced suite this many times, seeds seed, seed+1, …, and report each metric's spread")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	switch {
	case *name != "":
		w := findWorkload(*name)
		if w == nil {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		sz := production
		sz.Measure = time.Duration(*secs * float64(time.Second))
		res, err := runWorkload(w, *seed, sz, *trace != 0)
		if err != nil {
			fatal(err)
		}
		printResult(os.Stdout, w.Name, res, *trace != 0)
		if !res.Correct {
			os.Exit(1)
		}
	case *repeats > 0:
		if err := repeat(*repeats, *seed, *secs); err != nil {
			fatal(err)
		}
	default:
		if err := suite(*seed, *secs, *trace != 0); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// runWorkload runs one pass of one workload in this process.
func runWorkload(w *workload, seed int64, sz size, traced bool) (*result, error) {
	runtime.GOMAXPROCS(procs)
	e, err := newEnv(w, seed, sz)
	if err != nil {
		return nil, err
	}
	if traced {
		return e.traced(context.Background())
	}
	return e.measure(context.Background())
}

// environment describes the host and build, for the "#" header and the
// suite's JSON document.
func environment() map[string]any {
	commit := "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"go": runtime.Version(), "num_cpu": runtime.NumCPU(), "gomaxprocs": procs, "commit": commit,
	}
}

// declared returns the metrics the given pass prints.
func declared(traced bool) []metric {
	if traced {
		return perLayer
	}
	return endToEnd
}

// wireResult is the last line's JSON shape.
type wireResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]wireMeasure `json:"metrics"`
}

type wireMeasure struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printResult(out io.Writer, workload string, res *result, traced bool) {
	env := environment()
	fmt.Fprintf(out, "# %s go=%v num_cpu=%v gomaxprocs=%v commit=%v\n", workload, env["go"], env["num_cpu"], env["gomaxprocs"], env["commit"])
	for _, note := range res.notes {
		fmt.Fprintf(out, "# %s %s\n", workload, note)
	}
	doc := wireResult{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]wireMeasure{}}
	for _, d := range declared(traced) {
		v, ok := res.Metrics[d.Name]
		if !ok {
			continue // a run cut short by a batch error has no metrics
		}
		fmt.Fprintf(out, "%s %s %v %s\n", workload, d.Name, v, d.Unit)
		doc.Metrics[d.Name] = wireMeasure{v, d.Unit}
	}
	line, err := json.Marshal(doc)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(out, "%s\n", line)
}

// child runs one pass of one workload in a process of its own, passes its
// lines through, and returns its last line decoded.
func child(w *workload, seed int64, secs float64, traced bool) (*wireResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	t := 0
	if traced {
		t = 1
	}
	cmd := exec.Command(self, "-workload", w.Name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(secs), "-trace", fmt.Sprint(t))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	var last string
	lines := bufio.NewScanner(stdout)
	lines.Buffer(nil, 1<<20)
	for lines.Scan() {
		if last != "" {
			fmt.Println(last)
		}
		last = lines.Text()
	}
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	var res wireResult
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, fmt.Errorf("%s: last line is not a result: %w", w.Name, err)
	}
	return &res, nil
}

// suite runs every workload untraced, then traced if asked, and ends with
// one JSON document.
func suite(seed int64, secs float64, traced bool) error {
	doc := environment()
	doc["seed"] = seed
	passes := []bool{false}
	if traced {
		passes = append(passes, true)
	}
	results := map[string]map[string]wireMeasure{}
	for _, pass := range passes {
		for _, w := range workloads {
			res, err := child(w, seed, secs, pass)
			if err != nil {
				return err
			}
			if results[w.Name] == nil {
				results[w.Name] = map[string]wireMeasure{}
			}
			for name, v := range res.Metrics {
				results[w.Name][name] = v
			}
		}
	}
	doc["workloads"] = results
	line, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	return nil
}

// repeat runs the untraced suite n times and prints, for every workload and
// end-to-end metric, the n values, their spread as a share of their median,
// and whether the spread stays within the metric's bound. The spread is the
// distance between the quartiles from four runs up, and between the extremes
// below that.
func repeat(n int, seed int64, secs float64) error {
	got := map[string][]float64{} // "workload metric" → one value per run
	for i := 0; i < n; i++ {
		for _, w := range workloads {
			res, err := child(w, seed+int64(i), secs, false)
			if err != nil {
				return err
			}
			for _, d := range endToEnd {
				key := w.Name + " " + d.Name
				got[key] = append(got[key], res.Metrics[d.Name].Value)
			}
		}
	}
	pass := true
	for _, w := range workloads {
		for _, d := range endToEnd {
			xs := got[w.Name+" "+d.Name]
			lo, hi := slices.Min(xs), slices.Max(xs)
			if n >= 4 {
				lo, hi = quartiles(xs)
			}
			spread := (hi - lo) / median(xs)
			verdict := "PASS"
			if spread > d.Bound {
				verdict, pass = "FAIL", false
			}
			vals := make([]string, len(xs))
			for i, x := range xs {
				vals[i] = fmt.Sprintf("%.5g", x)
			}
			fmt.Printf("repeat %s %s median=%.5g spread=%.4f bound=%.2f %s [%s]\n",
				w.Name, d.Name, median(xs), spread, d.Bound, verdict, strings.Join(vals, " "))
		}
	}
	if !pass {
		return fmt.Errorf("a metric's spread over %d runs exceeds its bound", n)
	}
	return nil
}

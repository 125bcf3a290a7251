package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// wireCounter adds up the bytes crossing the benchmark's loopback
// connections, seen from the server's side of each.
type wireCounter struct {
	toProver   atomic.Int64 // read by a server: verifier → prover
	toVerifier atomic.Int64 // written by a server: prover → verifier
}

func (c *wireCounter) total() int64 { return c.toProver.Load() + c.toVerifier.Load() }

// countingListener wraps a server's listener so every accepted connection
// reports its traffic to one wireCounter.
type countingListener struct {
	net.Listener
	counter *wireCounter
}

func (l countingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{conn, l.counter}, nil
}

type countingConn struct {
	net.Conn
	counter *wireCounter
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.counter.toProver.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.counter.toVerifier.Add(int64(n))
	return n, err
}

// byteCounter is an io.Writer that only counts.
type byteCounter int64

func (b *byteCounter) Write(p []byte) (int, error) {
	*b += byteCounter(len(p))
	return len(p), nil
}

// peakRSSMiB reports the process's peak resident set: VmHWM from
// /proc/self/status on Linux. Elsewhere it falls back to the memory the Go
// runtime currently holds from the OS, which is the closest portable number
// and a lower bound on the peak.
func peakRSSMiB() float64 {
	if status, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range bytes.Split(status, []byte("\n")) {
			if rest, ok := bytes.CutPrefix(line, []byte("VmHWM:")); ok {
				fields := bytes.Fields(rest)
				if len(fields) == 2 && string(fields[1]) == "kB" {
					if kb, err := strconv.ParseFloat(string(fields[0]), 64); err == nil {
						return kb / 1024
					}
				}
			}
		}
	}
	s := []metrics.Sample{
		{Name: "/memory/classes/total:bytes"},
		{Name: "/memory/classes/heap/released:bytes"},
	}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()-s[1].Value.Uint64()) / (1 << 20)
}

// spanRecord is one finished or running span. Start and End are offsets
// from the recorder's creation. Lane separates spans that overlap their
// siblings (the verifier checking instance i while the prover answers
// i+1) so that a trace viewer nests each lane on its own.
type spanRecord struct {
	Name   string
	ID     int
	Parent int // 0 for a batch's root span
	Trace  int // one per batch
	Lane   int
	Start  time.Duration
	End    time.Duration
}

func (s spanRecord) dur() time.Duration { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. A nil *recorder and
// the nil *span it hands out record nothing, which is how the untraced pass
// runs the same driving code.
type recorder struct {
	epoch time.Time

	mu     sync.Mutex
	spans  []spanRecord
	traces int
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// span is the handle of an open span: where to write its end, and what its
// children inherit.
type span struct {
	rec             *recorder
	id, trace, lane int
}

func (r *recorder) open(name string, parent, trace, lane int) *span {
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, spanRecord{Name: name, ID: id, Parent: parent, Trace: trace, Lane: lane, Start: now})
	return &span{rec: r, id: id, trace: trace, lane: lane}
}

// root opens a span with a trace id of its own: one batch.
func (r *recorder) root(name string) *span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	r.traces++
	trace := r.traces
	r.mu.Unlock()
	return r.open(name, 0, trace, 0)
}

// child opens a span caused by s, on s's lane.
func (s *span) child(name string) *span {
	if s == nil {
		return nil
	}
	return s.rec.open(name, s.id, s.trace, s.lane)
}

// fork opens a child that runs beside s's other children, one lane up.
func (s *span) fork(name string) *span {
	if s == nil {
		return nil
	}
	return s.rec.open(name, s.id, s.trace, s.lane+1)
}

func (s *span) end() {
	if s == nil {
		return
	}
	now := time.Since(s.rec.epoch)
	s.rec.mu.Lock()
	s.rec.spans[s.id-1].End = now
	s.rec.mu.Unlock()
}

func (r *recorder) snapshot() []spanRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]spanRecord(nil), r.spans...)
}

// covered is the length of the union of the spans' intervals.
func covered(spans []spanRecord) time.Duration {
	s := append([]spanRecord(nil), spans...)
	sort.Slice(s, func(i, j int) bool { return s[i].Start < s[j].Start })
	var total, end time.Duration
	for _, sp := range s {
		switch {
		case sp.Start >= end:
			total += sp.dur()
			end = sp.End
		case sp.End > end:
			total += sp.End - end
			end = sp.End
		}
	}
	return total
}

// ledgerRow is every span that shares one path of names from a batch root,
// summed over the traced batches. Self is the spans' time minus the part
// their children cover; for the root row it is the unattributed time.
type ledgerRow struct {
	Path   string
	Depth  int
	Beside bool // on a lane of its own: it overlaps its siblings
	Count  int
	Total  time.Duration
	Self   time.Duration
}

// ledger folds the span tree into rows in first-seen order, parents before
// children.
func ledger(spans []spanRecord) []ledgerRow {
	children := map[int][]spanRecord{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	var rows []ledgerRow
	index := map[string]int{}
	var walk func(s spanRecord, prefix string, depth, lane int)
	walk = func(s spanRecord, prefix string, depth, lane int) {
		path := prefix + s.Name
		i, ok := index[path]
		if !ok {
			i = len(rows)
			index[path] = i
			rows = append(rows, ledgerRow{Path: path, Depth: depth, Beside: s.Lane != lane})
		}
		kids := children[s.ID]
		rows[i].Count++
		rows[i].Total += s.dur()
		rows[i].Self += s.dur() - covered(kids)
		for _, k := range kids {
			walk(k, path+"/", depth+1, s.Lane)
		}
	}
	for _, root := range children[0] {
		walk(root, "", 0, root.Lane)
	}
	return rows
}

// writeChromeTrace writes the spans as Chrome trace-event JSON (complete
// "X" events, microseconds), loadable in chrome://tracing or Perfetto. Each
// batch is a process, each lane a thread.
func writeChromeTrace(path string, spans []spanRecord) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	events := make([]event, 0, len(spans))
	for _, s := range spans {
		events = append(events, event{
			Name: s.Name, Ph: "X",
			Ts: float64(s.Start.Nanoseconds()) / 1e3, Dur: float64(s.dur().Nanoseconds()) / 1e3,
			Pid: s.Trace, Tid: s.Lane,
			Args: map[string]int{"id": s.ID, "parent": s.Parent, "trace": s.Trace},
		})
	}
	data, err := json.Marshal(map[string]any{"displayTimeUnit": "ms", "traceEvents": events})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	return nil
}

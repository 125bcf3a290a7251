package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Prometheus text-exposition rendering for the registry: counters map to
// prometheus counters (name_total), histograms map to prometheus
// histograms in seconds with cumulative `le` buckets derived from the
// power-of-two nanosecond buckets, labeled vectors render one series per
// label set with escaped label values, and gauges render as prometheus
// gauges. Metric names are prefixed with "zaatar_" and dots become
// underscores, so `vc.verify` renders as
// `zaatar_vc_verify_seconds_bucket{le="..."}` lines plus _sum and _count.

// promName sanitizes a registry metric name into a prometheus one.
func promName(name string) string {
	var b strings.Builder
	b.WriteString("zaatar_")
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promFloat renders a float the way prometheus clients do.
func promFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// promEscaper escapes a label value per the text exposition format:
// backslash, double quote, and line feed.
var promEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// promLabels renders `k1="v1",k2="v2"` (no braces) for a series' label
// values, escaped. Empty key set renders as "".
func promLabels(keys []string, vals labelKey) string {
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(promName(k)[len("zaatar_"):]) // sanitize key, drop prefix
		b.WriteString(`="`)
		b.WriteString(promEscaper.Replace(vals[i]))
		b.WriteByte('"')
	}
	return b.String()
}

// braced wraps a non-empty label list in braces.
func braced(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + labels + "}"
}

// writePromHist renders one histogram's bucket/sum/count lines. labels is
// the pre-rendered, escaped `k="v",...` pair list (or "") shared by every
// line of the series.
func writePromHist(w io.Writer, pn, labels string, s HistogramSnapshot) {
	sep := ""
	if labels != "" {
		sep = ","
	}
	// Bucket i of the snapshot counts observations with nanosecond bit
	// length i, so the cumulative count through bucket i covers durations
	// ≤ 2^i − 1 ns. The last bucket is a catch-all and folds into +Inf.
	var cum int64
	for i := 0; i < numBuckets-1; i++ {
		cum += s.Buckets[i]
		le := float64(int64(1)<<uint(i)-1) / 1e9
		fmt.Fprintf(w, "%s_bucket{%s%sle=%q} %d\n", pn, labels, sep, promFloat(le), cum)
	}
	fmt.Fprintf(w, "%s_bucket{%s%sle=\"+Inf\"} %d\n", pn, labels, sep, s.Count)
	suffix := braced(labels)
	fmt.Fprintf(w, "%s_sum%s %s\n%s_count%s %d\n", pn, suffix, promFloat(s.Sum.Seconds()), pn, suffix, s.Count)
}

// WritePrometheus renders every family in the prometheus text exposition
// format (version 0.0.4), sorted by name for stable scrapes and golden
// tests: one # TYPE line per family, then its series. A family with no
// series writes nothing.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.RLock()
	names := make([]string, 0, len(r.fams))
	for name := range r.fams {
		names = append(names, name)
	}
	sort.Strings(names)
	fams := make([]*family, len(names))
	for i, name := range names {
		fams[i] = r.fams[name]
	}
	r.mu.RUnlock()

	bw := bufio.NewWriter(w)
	for i, f := range fams {
		pn := promName(names[i])
		switch f.kind {
		case kindCounter:
			series := f.cv.snapshot()
			if len(series) == 0 {
				continue
			}
			pn += "_total"
			fmt.Fprintf(bw, "# TYPE %s counter\n", pn)
			for _, s := range series {
				fmt.Fprintf(bw, "%s%s %d\n", pn, braced(promLabels(f.keys, s.vals)), s.t.Value())
			}
		case kindHistogram:
			series := f.hv.snapshot()
			if len(series) == 0 {
				continue
			}
			pn += "_seconds"
			fmt.Fprintf(bw, "# TYPE %s histogram\n", pn)
			for _, s := range series {
				writePromHist(bw, pn, promLabels(f.keys, s.vals), s.t.Snapshot())
			}
		case kindGauge:
			fmt.Fprintf(bw, "# TYPE %s gauge\n%s %s\n", pn, pn, promFloat(f.gauge()))
		}
	}
	return bw.Flush()
}

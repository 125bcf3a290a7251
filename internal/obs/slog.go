package obs

import (
	"context"
	"fmt"
	"io"
	"log/slog"

	"zaatar/internal/obs/trace"
)

// Structured logging for the binaries and the transport layer: a
// log/slog logger whose handler stamps every record with the trace_id and
// span_id carried by the context (internal/obs/trace), rendered in the
// same %016x form the Perfetto export uses — so a JSON log line joins
// against the exported trace by string equality. Components accept a
// *slog.Logger and fall back to NopLogger when given nil, keeping logging
// optional exactly like tracing.

// NewLogger returns a logger writing to w. format selects the handler:
// "json" emits one JSON object per record; anything else emits the slog
// text form. Records logged with a context carrying a trace position gain
// trace_id and span_id attributes.
func NewLogger(w io.Writer, format string) *slog.Logger {
	var h slog.Handler
	if format == "json" {
		h = slog.NewJSONHandler(w, nil)
	} else {
		h = slog.NewTextHandler(w, nil)
	}
	return slog.New(traceHandler{h})
}

// NopLogger returns a logger that discards everything — the nil-safe
// default for components whose caller did not configure logging.
func NopLogger() *slog.Logger { return slog.New(discardHandler{}) }

// OrNop returns l, or the discard logger when l is nil, so components can
// normalize an optional logger once at construction.
func OrNop(l *slog.Logger) *slog.Logger {
	if l == nil {
		return NopLogger()
	}
	return l
}

// TraceIDString renders a trace or span identifier the way the Perfetto
// export does, so log records and trace JSON join on equal strings.
func TraceIDString(id uint64) string { return fmt.Sprintf("%016x", id) }

// traceHandler decorates an inner handler, adding trace correlation
// attributes from the context at Handle time.
type traceHandler struct {
	inner slog.Handler
}

func (h traceHandler) Enabled(ctx context.Context, level slog.Level) bool {
	return h.inner.Enabled(ctx, level)
}

func (h traceHandler) Handle(ctx context.Context, rec slog.Record) error {
	if tc := trace.FromContext(ctx); tc != nil {
		rec.AddAttrs(
			slog.String("trace_id", TraceIDString(uint64(tc.TraceID()))),
			slog.String("span_id", TraceIDString(uint64(tc.SpanID()))),
		)
	}
	return h.inner.Handle(ctx, rec)
}

func (h traceHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	return traceHandler{h.inner.WithAttrs(attrs)}
}

func (h traceHandler) WithGroup(name string) slog.Handler {
	return traceHandler{h.inner.WithGroup(name)}
}

// discardHandler is slog.DiscardHandler for toolchains predating it.
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (discardHandler) WithAttrs([]slog.Attr) slog.Handler        { return discardHandler{} }
func (discardHandler) WithGroup(string) slog.Handler             { return discardHandler{} }

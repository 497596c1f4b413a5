// Package slogx is the repository's thin wrapper over log/slog: one
// process-wide leveled logger the CLIs configure from their flags, so
// every status line that used to be an ad-hoc fmt.Printf is now a
// machine-parseable key=value (or JSON) record with a level, while
// staying readable on a terminal.
package slogx

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"os"
	"sync/atomic"

	"repro/internal/telemetry"
)

// Options configures the process logger.
type Options struct {
	// Writer defaults to os.Stderr.
	Writer io.Writer
	// Level is the minimum level emitted (default Info).
	Level slog.Level
	// JSON selects the JSON handler instead of the text handler.
	JSON bool
}

var current atomic.Pointer[slog.Logger]

func init() {
	current.Store(build(Options{}))
}

func build(o Options) *slog.Logger {
	w := o.Writer
	if w == nil {
		w = os.Stderr
	}
	ho := &slog.HandlerOptions{Level: o.Level}
	var h slog.Handler
	if o.JSON {
		h = slog.NewJSONHandler(w, ho)
	} else {
		h = slog.NewTextHandler(w, ho)
	}
	return slog.New(flightHandler{next: h})
}

// flightHandler tees every emitted record into the telemetry flight
// recorder (kind "log"), so recent log lines appear in flight dumps
// next to the spans and verdicts they narrate. Level filtering has
// already happened by the time Handle runs, so the ring sees exactly
// what the operator's log stream sees. Attrs bound with Logger.With and
// group prefixes opened with WithGroup are accumulated here so derived
// loggers' flight entries carry the same context their log lines do.
type flightHandler struct {
	next slog.Handler
	// bound holds attrs from WithAttrs, already rendered and
	// group-prefixed; never mutated after construction (WithAttrs copies).
	bound map[string]string
	// prefix is the dot-joined open group path applied to attr keys.
	prefix string
}

// Enabled delegates level filtering to the wrapped handler.
func (h flightHandler) Enabled(ctx context.Context, level slog.Level) bool {
	return h.next.Enabled(ctx, level)
}

// Handle records the entry in the flight recorder, then delegates.
func (h flightHandler) Handle(ctx context.Context, r slog.Record) error {
	attrs := make(map[string]string, len(h.bound)+r.NumAttrs()+1)
	for k, v := range h.bound {
		attrs[k] = v
	}
	attrs["level"] = r.Level.String()
	r.Attrs(func(a slog.Attr) bool {
		flattenAttr(attrs, h.prefix, a)
		return true
	})
	telemetry.RecordFlight(telemetry.FlightEntry{
		Time:  r.Time,
		Kind:  "log",
		Name:  r.Message,
		Trace: telemetry.TraceIDFrom(ctx),
		Attrs: attrs,
	})
	return h.next.Handle(ctx, r)
}

// flattenAttr renders one attr into dst under the group prefix,
// expanding slog.Group values the way the text handler does
// (group.key=value).
func flattenAttr(dst map[string]string, prefix string, a slog.Attr) {
	v := a.Value.Resolve()
	if v.Kind() == slog.KindGroup {
		p := prefix
		if a.Key != "" {
			p += a.Key + "."
		}
		for _, ga := range v.Group() {
			flattenAttr(dst, p, ga)
		}
		return
	}
	dst[prefix+a.Key] = fmt.Sprint(v.Any())
}

// WithAttrs keeps the tee on derived handlers, folding the newly bound
// attrs into the recorded context.
func (h flightHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	bound := make(map[string]string, len(h.bound)+len(attrs))
	for k, v := range h.bound {
		bound[k] = v
	}
	for _, a := range attrs {
		flattenAttr(bound, h.prefix, a)
	}
	return flightHandler{next: h.next.WithAttrs(attrs), bound: bound, prefix: h.prefix}
}

// WithGroup keeps the tee on derived handlers, extending the prefix
// later attrs are recorded under.
func (h flightHandler) WithGroup(name string) slog.Handler {
	prefix := h.prefix
	if name != "" {
		prefix += name + "."
	}
	return flightHandler{next: h.next.WithGroup(name), bound: h.bound, prefix: prefix}
}

// Configure replaces the process logger and returns it.
func Configure(o Options) *slog.Logger {
	l := build(o)
	current.Store(l)
	return l
}

// L returns the process logger.
func L() *slog.Logger { return current.Load() }

// Info logs at info level on the process logger.
func Info(msg string, args ...any) { L().Info(msg, args...) }

// Warn logs at warn level on the process logger.
func Warn(msg string, args ...any) { L().Warn(msg, args...) }

// CLILevel maps the shared -quiet/-verbose CLI flags to a level: quiet
// wins and raises the floor to Warn, verbose lowers it to Debug.
func CLILevel(quiet, verbose bool) slog.Level {
	switch {
	case quiet:
		return slog.LevelWarn
	case verbose:
		return slog.LevelDebug
	default:
		return slog.LevelInfo
	}
}

package etl

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"sort"

	"repro/internal/trace"
)

// Writer serialises stack-event correlated logs into the raw binary
// event-trace-log format. A Writer may carry several processes; their
// events can be emitted in any order, as real tracing engines interleave
// event streams from concurrent processes.
type Writer struct {
	bw        *bufio.Writer
	started   bool
	processes map[int]bool
	err       error
}

// NewWriter creates a Writer emitting to w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{
		bw:        bufio.NewWriter(w),
		processes: make(map[int]bool),
	}
}

// begin lazily writes the file header.
func (w *Writer) begin() error {
	if w.err != nil {
		return w.err
	}
	if w.started {
		return nil
	}
	w.started = true
	if _, err := io.WriteString(w.bw, magic); err != nil {
		return w.fail(err)
	}
	if err := writeU16(w.bw, version); err != nil {
		return w.fail(err)
	}
	return nil
}

// fail records the first error and returns it; subsequent calls keep
// failing fast.
func (w *Writer) fail(err error) error {
	if w.err == nil {
		w.err = err
	}
	return w.err
}

// WriteProcess declares a traced process: its PID, application name and
// loaded modules. It must precede the process's events.
func (w *Writer) WriteProcess(pid int, app string, modules []*trace.Module) error {
	if err := w.begin(); err != nil {
		return err
	}
	if w.processes[pid] {
		return w.fail(fmt.Errorf("etl: duplicate process record for pid %d", pid))
	}
	w.processes[pid] = true
	if err := writeU8(w.bw, recProcess); err != nil {
		return w.fail(err)
	}
	if err := writeU32(w.bw, uint32(pid)); err != nil {
		return w.fail(err)
	}
	if err := writeString(w.bw, app); err != nil {
		return w.fail(err)
	}
	if err := writeU32(w.bw, uint32(len(modules))); err != nil {
		return w.fail(err)
	}
	for _, m := range modules {
		if err := writeString(w.bw, m.Name); err != nil {
			return w.fail(err)
		}
		if err := writeU8(w.bw, uint8(m.Kind)); err != nil {
			return w.fail(err)
		}
		if err := writeU64(w.bw, m.Base); err != nil {
			return w.fail(err)
		}
		if err := writeU64(w.bw, m.Size); err != nil {
			return w.fail(err)
		}
		syms := m.Symbols()
		if err := writeU32(w.bw, uint32(len(syms))); err != nil {
			return w.fail(err)
		}
		for _, s := range syms {
			if err := writeString(w.bw, s.Name); err != nil {
				return w.fail(err)
			}
			if err := writeU64(w.bw, s.Addr); err != nil {
				return w.fail(err)
			}
		}
	}
	return nil
}

// WriteEvent emits one event record followed, when the event carries a
// stack walk, by its stack record.
func (w *Writer) WriteEvent(e trace.Event) error {
	if err := w.begin(); err != nil {
		return err
	}
	if !w.processes[e.PID] {
		return w.fail(fmt.Errorf("etl: event for undeclared pid %d", e.PID))
	}
	if len(e.Stack) > maxFrames {
		return w.fail(fmt.Errorf("etl: stack of %d frames exceeds limit %d", len(e.Stack), maxFrames))
	}
	if err := writeU8(w.bw, recEvent); err != nil {
		return w.fail(err)
	}
	if err := writeU16(w.bw, uint16(e.Type)); err != nil {
		return w.fail(err)
	}
	if err := writeI64(w.bw, e.Time.UnixNano()); err != nil {
		return w.fail(err)
	}
	if err := writeU32(w.bw, uint32(e.PID)); err != nil {
		return w.fail(err)
	}
	if err := writeU32(w.bw, uint32(e.TID)); err != nil {
		return w.fail(err)
	}
	var flags uint8
	if len(e.Stack) > 0 {
		flags |= flagHasStack
	}
	if err := writeU8(w.bw, flags); err != nil {
		return w.fail(err)
	}
	if len(e.Stack) == 0 {
		return nil
	}
	if err := writeU8(w.bw, recStack); err != nil {
		return w.fail(err)
	}
	if err := writeU32(w.bw, uint32(e.PID)); err != nil {
		return w.fail(err)
	}
	if err := writeU32(w.bw, uint32(e.TID)); err != nil {
		return w.fail(err)
	}
	if err := writeU16(w.bw, uint16(len(e.Stack))); err != nil {
		return w.fail(err)
	}
	for _, fr := range e.Stack {
		if err := writeU64(w.bw, fr.Addr); err != nil {
			return w.fail(err)
		}
	}
	return nil
}

// Close terminates and flushes the stream. The Writer must not be used
// afterwards.
func (w *Writer) Close() error {
	if err := w.begin(); err != nil {
		return err
	}
	if err := writeU8(w.bw, recEnd); err != nil {
		return w.fail(err)
	}
	if err := w.bw.Flush(); err != nil {
		return w.fail(err)
	}
	return nil
}

// WriteLogs serialises one or more per-process logs into a single raw
// file, merging their event streams in timestamp order the way a system
// tracing engine would interleave concurrent processes.
func WriteLogs(w io.Writer, logs ...*trace.Log) error {
	if len(logs) == 0 {
		return errors.New("etl: no logs to write")
	}
	ew := NewWriter(w)
	type cursor struct {
		log *trace.Log
		idx int
	}
	cursors := make([]*cursor, 0, len(logs))
	for _, l := range logs {
		if l.Modules == nil {
			return fmt.Errorf("etl: log for app %q has no module map", l.App)
		}
		if err := ew.WriteProcess(l.PID, l.App, l.Modules.Modules()); err != nil {
			return err
		}
		cursors = append(cursors, &cursor{log: l})
	}
	for {
		// Pick the cursor with the earliest pending event.
		sort.SliceStable(cursors, func(i, j int) bool {
			ci, cj := cursors[i], cursors[j]
			iDone := ci.idx >= ci.log.Len()
			jDone := cj.idx >= cj.log.Len()
			if iDone != jDone {
				return jDone
			}
			if iDone {
				return false
			}
			return ci.log.Events[ci.idx].Time.Before(cj.log.Events[cj.idx].Time)
		})
		c := cursors[0]
		if c.idx >= c.log.Len() {
			break
		}
		if err := ew.WriteEvent(c.log.Events[c.idx]); err != nil {
			return err
		}
		c.idx++
	}
	return ew.Close()
}

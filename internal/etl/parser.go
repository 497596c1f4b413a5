package etl

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Parser telemetry: throughput, record outcomes and lenient-recovery
// activity, labeled by skip cause so trace quality is visible at runtime
// (etl_skipped_records_total{cause=...}).
var (
	mParseBytes    = telemetry.NewCounter("etl_parsed_bytes_total", "bytes consumed by the raw-log parser")
	mParseRecords  = telemetry.NewCounter("etl_records_total", "raw-log records decoded successfully")
	mParseEvents   = telemetry.NewCounter("etl_events_total", "events recovered across all processes")
	mParseSkipped  = telemetry.NewCounterVec("etl_skipped_records_total", "records skipped by the lenient parser", "cause")
	mParseDropped  = telemetry.NewCounter("etl_dropped_stacks_total", "stack walks dropped (orphaned, superseded or left pending)")
	mResyncBytes   = telemetry.NewCounter("etl_resync_bytes_total", "bytes discarded while resynchronizing after corrupt records")
	mParseFailures = telemetry.NewCounter("etl_parse_failures_total", "parses rejected outright (strict error or error budget exhausted)")
)

// DefaultMaxErrors is the lenient parser's record-error budget.
const DefaultMaxErrors = 1024

// maxErrors is the budget a lenient parse enforces. A test may lower it;
// nothing else sets it.
var maxErrors = DefaultMaxErrors

// ErrTooManyErrors is wrapped by the error a lenient parse returns when
// the stream produced more malformed records than DefaultMaxErrors —
// at that point the input is treated as hopeless rather than noisy.
var ErrTooManyErrors = errors.New("etl: too many corrupt records")

// ParseOpts controls how Parse treats malformed input.
type ParseOpts struct {
	// Lenient makes the parser recover from malformed records: instead
	// of aborting, it logs the failure, scans forward for the next
	// plausible record boundary and resumes, until DefaultMaxErrors
	// records have failed. Strict mode (the zero value) rejects the whole
	// stream on the first error.
	Lenient bool
}

// ParseError is one record the lenient parser had to skip.
type ParseError struct {
	// Offset is the byte position of the record's tag in the stream
	// (for failures that precede any tag, the position of the failure).
	Offset int64
	// Tag is the record tag being parsed, 0 when none was read.
	Tag byte
	// Cause is the underlying decode or correlation failure.
	Cause error
	// ResyncBytes is how many bytes the parser discarded after the
	// failure before finding the next plausible record boundary (zero
	// for failures that left the stream at a boundary).
	ResyncBytes int64
}

func (e ParseError) Error() string {
	return fmt.Sprintf("etl: record 0x%02x at offset %d: %v", e.Tag, e.Offset, e.Cause)
}

func (e ParseError) Unwrap() error { return e.Cause }

// RawFile is the parsed content of a raw event-trace-log: the per-process
// stack-event correlated logs, ready for application slicing.
type RawFile struct {
	byPID map[int]*trace.Log
	// Dropped counts stack records that could not be correlated with a
	// pending event and were discarded.
	Dropped int
	// ErrorLog records every record a lenient parse skipped, in stream
	// order. Always empty after a strict parse.
	ErrorLog []ParseError
}

// TotalEvents returns the number of events recovered across all
// processes.
func (f *RawFile) TotalEvents() int {
	var n int
	for _, l := range f.byPID {
		n += l.Len()
	}
	return n
}

// SliceApp returns the stack-event correlated log of the process
// running the named application — the paper's per-application slicing
// step.
// An empty name selects the file's only process; it is an error when the
// file holds any other number of processes.
func (f *RawFile) SliceApp(app string) (*trace.Log, error) {
	if app == "" {
		if len(f.byPID) != 1 {
			return nil, fmt.Errorf("etl: file holds %d processes; name the application", len(f.byPID))
		}
		for _, l := range f.byPID {
			return l, nil
		}
	}
	for _, l := range f.byPID {
		if l.App == app {
			return l, nil
		}
	}
	return nil, fmt.Errorf("etl: no process running %q in file", app)
}

// Parse reads a raw event-trace-log, correlates each stack-walk record
// with the event that triggered it, resolves every frame against the
// process's module map, and slices the stream per process. It is strict:
// any malformed record rejects the whole file (see ParseWith for the
// lenient variant).
func Parse(r io.Reader) (*RawFile, error) {
	return ParseWith(r, ParseOpts{})
}

// ParseWith is Parse with explicit fault-tolerance options. In lenient
// mode a malformed record is logged in RawFile.ErrorLog and the parser
// resynchronizes on the next plausible record boundary; truncated
// streams yield whatever was recovered up to the cut. r is read to its
// end once and the bytes are parsed by ParseBytes; an error reading r
// fails the parse in either mode.
func ParseWith(r io.Reader, opts ParseOpts) (*RawFile, error) {
	// io.Copy goes through WriterTo, so a *bytes.Reader or *bytes.Buffer
	// source fills the buffer at its exact final size in one copy.
	var buf bytes.Buffer
	if _, err := io.Copy(&buf, r); err != nil {
		return nil, fmt.Errorf("etl: reading log: %w", err)
	}
	return ParseBytes(buf.Bytes(), opts)
}

// ParseBytes is ParseWith over an in-memory stream, parsed without
// copying it: primitives are sliced straight out of data and stack walks
// are carved from a per-parse frame arena. Identical raw stacks of one
// process share one resolved walk, so the returned file is read-only.
// It does not retain data.
func ParseBytes(data []byte, opts ParseOpts) (*RawFile, error) {
	_, sp := telemetry.StartSpan(context.Background(), "etl/parse")
	defer sp.End()
	p := &parser{
		rd:   reader{data: data},
		opts: opts,
		f:    &RawFile{byPID: make(map[int]*trace.Log)},
	}
	f, err := p.parse()
	mParseBytes.Add(uint64(p.rd.pos))
	mParseRecords.Add(p.records)
	if err != nil {
		mParseFailures.Inc()
		return nil, err
	}
	mParseEvents.Add(uint64(f.TotalEvents()))
	mParseDropped.Add(uint64(f.Dropped))
	return f, nil
}

// semanticError marks a record whose bytes decoded cleanly but whose
// content could not be used (undeclared pid, duplicate process). The
// stream position is at the next record boundary, so lenient recovery
// skips the resynchronization scan.
type semanticError struct{ err error }

func (e *semanticError) Error() string { return e.err.Error() }
func (e *semanticError) Unwrap() error { return e.err }

func semantic(err error) error { return &semanticError{err: err} }

type parser struct {
	rd   reader
	opts ParseOpts
	f    *RawFile
	// pending holds, per pid<<32|tid, the index of the event awaiting
	// its stack record.
	pending pendingSet
	// events is eventCounts of the stream: each declared process's
	// Events is allocated at its count, so a clean stream appends
	// without regrowing.
	events map[int]int
	// records counts decoded records locally; ParseBytes flushes it to
	// mParseRecords once instead of bumping the shared atomic on every
	// record.
	records uint64
	// frames is the arena stack walks are carved from (see carve), so a
	// parse allocates a few chunks instead of one slice per stack record.
	frames []trace.Frame
	// stackCache memoises resolved stack walks by (pid, raw frame bytes).
	// Live traces repeat call sites constantly, so most stack records
	// skip symbol resolution entirely. Cached walks are shared between
	// the events that produced identical raw stacks — parse output is
	// read-only by contract.
	stackCache map[string]trace.StackWalk
	keyBuf     []byte
}

func pendingKey(pid, tid int) uint64 { return uint64(pid)<<32 | uint64(uint32(tid)) }

// pendingSet maps pending keys to event indices. Real traces have a
// handful of live threads at a time, so a linear-scanned array beats a
// map on the hot path; pathological streams (every event on a new
// thread) spill to a map rather than degrading quadratically.
type pendingSet struct {
	keys [pendingSpill]uint64
	idxs [pendingSpill]int
	n    int
	m    map[uint64]int // non-nil once the array spilled
}

// pendingSpill is the array capacity beyond which pendingSet spills to
// a map.
const pendingSpill = 32

func (s *pendingSet) get(k uint64) (int, bool) {
	for i := 0; i < s.n; i++ {
		if s.keys[i] == k {
			return s.idxs[i], true
		}
	}
	if s.m != nil {
		idx, ok := s.m[k]
		return idx, ok
	}
	return 0, false
}

// put inserts or replaces the entry for k and reports whether k was
// already present (a dangling stack request).
func (s *pendingSet) put(k uint64, idx int) bool {
	for i := 0; i < s.n; i++ {
		if s.keys[i] == k {
			s.idxs[i] = idx
			return true
		}
	}
	if s.m != nil {
		if _, ok := s.m[k]; ok {
			s.m[k] = idx
			return true
		}
	}
	if s.n < pendingSpill {
		s.keys[s.n], s.idxs[s.n] = k, idx
		s.n++
		return false
	}
	if s.m == nil {
		s.m = make(map[uint64]int)
	}
	s.m[k] = idx
	return false
}

func (s *pendingSet) del(k uint64) {
	for i := 0; i < s.n; i++ {
		if s.keys[i] == k {
			s.n--
			s.keys[i], s.idxs[i] = s.keys[s.n], s.idxs[s.n]
			return
		}
	}
	if s.m != nil {
		delete(s.m, k)
	}
}

func (s *pendingSet) len() int { return s.n + len(s.m) }

// errTruncatedStream marks a lenient parse that ran out of input before
// the end record.
var errTruncatedStream = errors.New("stream truncated before end record")

// errEarlyEnd marks an end record observed before the end of input — a
// corrupted byte masquerading as a terminator.
var errEarlyEnd = errors.New("end record before end of input")

// skipCause labels a skipped record for etl_skipped_records_total.
func skipCause(err error) string {
	var sem *semanticError
	switch {
	case errors.Is(err, errTruncatedStream):
		return "truncated"
	case errors.Is(err, errEarlyEnd):
		return "early_end"
	case errors.As(err, &sem):
		msg := sem.err.Error()
		switch {
		case strings.Contains(msg, "duplicate process"):
			return "duplicate_process"
		case strings.Contains(msg, "undeclared pid"):
			return "undeclared_pid"
		}
		return "semantic"
	default:
		return "corrupt"
	}
}

// parse runs the record loop; ParseBytes layers telemetry on top of it.
func (p *parser) parse() (*RawFile, error) {
	opts := p.opts

	// The header is the anchor of the whole stream: without a valid
	// magic and version there is nothing to resynchronize against, so
	// it is strict even in lenient mode.
	head, err := p.rd.take(len(magic))
	if err != nil {
		return nil, err
	}
	if string(head) != magic {
		return nil, corrupt(fmt.Errorf("bad magic %q", head))
	}
	ver, err := p.rd.u16()
	if err != nil {
		return nil, err
	}
	if ver != version {
		return nil, corrupt(fmt.Errorf("unsupported version %d", ver))
	}
	p.events = eventCounts(p.rd.data)

	for {
		tagOff := int64(p.rd.pos)
		tag, err := p.rd.u8()
		if err != nil {
			if !opts.Lenient {
				return nil, err
			}
			// Truncated stream: keep what was recovered, note the
			// missing terminator.
			if nerr := p.note(tagOff, 0, errTruncatedStream); nerr != nil {
				return nil, nerr
			}
			p.f.Dropped += p.pending.len()
			return p.f, nil
		}
		if tag == recEnd {
			// An end record is only trustworthy at end of input: a
			// corrupted byte that happens to read 0xFF mid-stream must
			// not silently discard everything after it.
			if len(p.rd.peek(1)) > 0 {
				if !opts.Lenient {
					return nil, corrupt(errEarlyEnd)
				}
				if nerr := p.note(tagOff, tag, corrupt(errEarlyEnd)); nerr != nil {
					return nil, nerr
				}
				p.resync()
				continue
			}
			p.f.Dropped += p.pending.len()
			return p.f, nil
		}
		if err := p.record(tag); err != nil {
			var sem *semanticError
			isSem := errors.As(err, &sem)
			if !opts.Lenient {
				if isSem {
					return nil, sem.err
				}
				return nil, err
			}
			if nerr := p.note(tagOff, tag, err); nerr != nil {
				return nil, nerr
			}
			if !isSem {
				p.resync()
			}
			continue
		}
		p.records++
	}
}

// note logs one skipped record, failing the parse once the error budget
// is exhausted.
func (p *parser) note(off int64, tag byte, cause error) error {
	mParseSkipped.With(skipCause(cause)).Inc()
	var sem *semanticError
	if errors.As(cause, &sem) {
		cause = sem.err
	}
	p.f.ErrorLog = append(p.f.ErrorLog, ParseError{Offset: off, Tag: tag, Cause: cause})
	if len(p.f.ErrorLog) > maxErrors {
		return fmt.Errorf("%w: %w: %d records skipped", ErrCorrupt, ErrTooManyErrors, len(p.f.ErrorLog))
	}
	return nil
}

// record parses one record body for the given tag.
func (p *parser) record(tag byte) error {
	switch tag {
	case recProcess:
		pid, app, mm, err := parseProcess(&p.rd)
		if err != nil {
			return err
		}
		if _, dup := p.f.byPID[pid]; dup {
			return semantic(corrupt(fmt.Errorf("duplicate process record for pid %d", pid)))
		}
		l := &trace.Log{App: app, PID: pid, Modules: mm}
		if n := p.events[pid]; n > 0 {
			l.Events = make([]trace.Event, 0, n)
		}
		p.f.byPID[pid] = l
		return nil

	case recEvent:
		return p.event()

	case recStack:
		return p.stack()

	default:
		return corrupt(fmt.Errorf("unknown record tag 0x%02x", tag))
	}
}

func (p *parser) event() error {
	// Fast path: the 19-byte fixed body decoded from one bounds check. A
	// short remainder falls through to the field-by-field decode, which
	// defines the truncation offset and cause.
	rd := &p.rd
	if b := rd.peek(19); len(b) == 19 {
		rd.pos += 19
		return p.eventDecoded(
			binary.LittleEndian.Uint16(b),
			int64(binary.LittleEndian.Uint64(b[2:])),
			binary.LittleEndian.Uint32(b[10:]),
			binary.LittleEndian.Uint32(b[14:]),
			b[18])
	}
	typ, err := rd.u16()
	if err != nil {
		return err
	}
	ns, err := rd.u64()
	if err != nil {
		return err
	}
	pid, err := rd.u32()
	if err != nil {
		return err
	}
	tid, err := rd.u32()
	if err != nil {
		return err
	}
	flags, err := rd.u8()
	if err != nil {
		return err
	}
	return p.eventDecoded(typ, int64(ns), pid, tid, flags)
}

// eventDecoded applies one decoded event record to the parse state.
func (p *parser) eventDecoded(typ uint16, ns int64, pid, tid uint32, flags uint8) error {
	l, ok := p.f.byPID[int(pid)]
	if !ok {
		return semantic(corrupt(fmt.Errorf("event for undeclared pid %d", pid)))
	}
	e := trace.Event{
		Seq:  l.Len(),
		Type: trace.EventType(typ),
		Time: time.Unix(0, ns).UTC(),
		PID:  int(pid),
		TID:  int(tid),
	}
	l.Events = append(l.Events, e)
	if flags&flagHasStack != 0 {
		if p.pending.put(pendingKey(int(pid), int(tid)), l.Len()-1) {
			p.f.Dropped++
		}
	}
	return nil
}

func (p *parser) stack() error {
	rd := &p.rd
	var pid, tid uint32
	var n uint16
	if b := rd.peek(10); len(b) == 10 {
		rd.pos += 10
		pid = binary.LittleEndian.Uint32(b)
		tid = binary.LittleEndian.Uint32(b[4:])
		n = binary.LittleEndian.Uint16(b[8:])
	} else {
		var err error
		if pid, err = rd.u32(); err != nil {
			return err
		}
		if tid, err = rd.u32(); err != nil {
			return err
		}
		if n, err = rd.u16(); err != nil {
			return err
		}
	}
	if int(n) > maxFrames {
		return corrupt(fmt.Errorf("stack of %d frames exceeds limit", n))
	}
	// When the whole frame array is present, look its raw bytes up in
	// the per-parse cache and reuse the already-resolved walk. A cut
	// walk falls through to the frame-by-frame decode, which defines the
	// truncation offset and cause.
	raw := rd.peek(8 * int(n))
	cacheable := len(raw) == 8*int(n)
	if cacheable {
		p.keyBuf = append(p.keyBuf[:0], byte(pid), byte(pid>>8), byte(pid>>16), byte(pid>>24))
		p.keyBuf = append(p.keyBuf, raw...)
		if cached, ok := p.stackCache[string(p.keyBuf)]; ok {
			rd.pos += len(raw)
			return p.correlateStack(int(pid), int(tid), cached, true, false)
		}
	}
	stack := p.carve(int(n))
	for i := range stack {
		addr, err := rd.u64()
		if err != nil {
			return err
		}
		stack[i].Addr = addr
	}
	return p.correlateStack(int(pid), int(tid), stack, false, cacheable)
}

// correlateStack attaches a stack walk to the event awaiting it. A
// resolved=false walk still holds raw addresses and is resolved here;
// when remember is set the resolved walk is memoised under the key left
// in p.keyBuf by the caller.
func (p *parser) correlateStack(pid, tid int, stack trace.StackWalk, resolved, remember bool) error {
	l, ok := p.f.byPID[pid]
	if !ok {
		return semantic(corrupt(fmt.Errorf("stack for undeclared pid %d", pid)))
	}
	k := pendingKey(pid, tid)
	idx, ok := p.pending.get(k)
	if !ok {
		// Orphan stack walk: no event awaits it. Real parsers
		// tolerate these (lost events under load); drop it.
		p.f.Dropped++
		return nil
	}
	p.pending.del(k)
	if !resolved {
		stack = l.Modules.ResolveStack(stack)
	}
	if remember {
		if p.stackCache == nil {
			p.stackCache = make(map[string]trace.StackWalk)
		}
		p.stackCache[string(p.keyBuf)] = stack
	}
	l.Events[idx].Stack = stack
	return nil
}

// arenaChunk is the minimum capacity, in frames, the frame arena grows
// by: large enough that a typical parse settles into one or two chunks,
// small enough not to waste memory on tiny logs.
const arenaChunk = 4096

// carve cuts an n-frame stack walk from the parse's frame arena, growing
// it by a fresh chunk when exhausted. Earlier walks keep aliasing the old
// chunk, so growth never invalidates them.
func (p *parser) carve(n int) trace.StackWalk {
	if cap(p.frames)-len(p.frames) < n {
		p.frames = make([]trace.Frame, 0, max(2*cap(p.frames), arenaChunk, n))
	}
	i := len(p.frames)
	p.frames = p.frames[:i+n]
	return trace.StackWalk(p.frames[i : i+n : i+n])
}

// resync advances the stream to the next plausible record boundary
// after a structural failure, byte by byte, and records the distance in
// the newest ErrorLog entry. It stops at end of input; the main loop
// then records the truncation.
func (p *parser) resync() {
	before := p.rd.pos
	for {
		b := p.rd.peek(resyncPeek)
		if len(b) == 0 || p.plausibleBoundary(b) {
			break
		}
		p.rd.pos++
	}
	skipped := int64(p.rd.pos - before)
	p.f.ErrorLog[len(p.f.ErrorLog)-1].ResyncBytes = skipped
	mResyncBytes.Add(uint64(skipped))
}

// resyncPeek is the lookahead window of the resynchronization scan:
// enough for the largest fixed-size validity check (a full event record
// of 20 bytes, or a process-record prefix plus a few name bytes).
const resyncPeek = 32

// plausibleBoundary reports whether the peeked bytes look like the
// start of a valid record. The checks trade a small false-negative rate
// (a valid boundary can be rejected when its fields happen to look
// corrupt) for a very low false-positive rate on garbage: random bytes
// must name a known tag AND satisfy per-record invariants such as a
// declared pid, a bounded frame count or a printable process name.
func (p *parser) plausibleBoundary(b []byte) bool {
	switch b[0] {
	case recEnd:
		// recEnd terminates the stream, so it is only plausible as the
		// final byte of the input.
		return len(b) == 1

	case recEvent:
		// tag + type u16 + time i64 + pid u32 + tid u32 + flags u8
		if len(b) < 20 {
			return false
		}
		typ := binary.LittleEndian.Uint16(b[1:3])
		ns := int64(binary.LittleEndian.Uint64(b[3:11]))
		pid := binary.LittleEndian.Uint32(b[11:15])
		flags := b[19]
		if typ >= plausibleMaxEventType || ns < 0 || flags > flagHasStack {
			return false
		}
		_, ok := p.f.byPID[int(pid)]
		return ok

	case recStack:
		// tag + pid u32 + tid u32 + frame count u16
		if len(b) < 11 {
			return false
		}
		pid := binary.LittleEndian.Uint32(b[1:5])
		n := binary.LittleEndian.Uint16(b[9:11])
		if int(n) > maxFrames {
			return false
		}
		_, ok := p.f.byPID[int(pid)]
		return ok

	case recProcess:
		// tag + pid u32 + app string (u16 length prefix)
		if len(b) < 7 {
			return false
		}
		n := int(binary.LittleEndian.Uint16(b[5:7]))
		if n == 0 || n > maxString {
			return false
		}
		name := b[7:]
		if len(name) > n {
			name = name[:n]
		}
		for _, c := range name {
			if c < 0x20 || c > 0x7e {
				return false
			}
		}
		return true
	}
	return false
}

// plausibleMaxEventType bounds the event-type field during
// resynchronization. It is deliberately far above the real type count so
// the format can grow, while still rejecting the vast majority of random
// 16-bit values.
const plausibleMaxEventType = 1024

// parseProcess reads the body of a recProcess record.
func parseProcess(rd *reader) (int, string, *trace.ModuleMap, error) {
	pid, err := rd.u32()
	if err != nil {
		return 0, "", nil, err
	}
	app, err := rd.str()
	if err != nil {
		return 0, "", nil, err
	}
	nMods, err := rd.u32()
	if err != nil {
		return 0, "", nil, err
	}
	if nMods > maxModules {
		return 0, "", nil, corrupt(fmt.Errorf("module count %d exceeds limit", nMods))
	}
	mods := make([]*trace.Module, 0, nMods)
	for i := uint32(0); i < nMods; i++ {
		name, err := rd.str()
		if err != nil {
			return 0, "", nil, err
		}
		kind, err := rd.u8()
		if err != nil {
			return 0, "", nil, err
		}
		base, err := rd.u64()
		if err != nil {
			return 0, "", nil, err
		}
		size, err := rd.u64()
		if err != nil {
			return 0, "", nil, err
		}
		nSyms, err := rd.u32()
		if err != nil {
			return 0, "", nil, err
		}
		if nSyms > maxSymbols {
			return 0, "", nil, corrupt(fmt.Errorf("symbol count %d exceeds limit", nSyms))
		}
		syms := make([]trace.Symbol, 0, nSyms)
		for j := uint32(0); j < nSyms; j++ {
			sName, err := rd.str()
			if err != nil {
				return 0, "", nil, err
			}
			sAddr, err := rd.u64()
			if err != nil {
				return 0, "", nil, err
			}
			syms = append(syms, trace.Symbol{Name: sName, Addr: sAddr})
		}
		m, err := trace.NewModule(name, trace.ModuleKind(kind), base, size, syms)
		if err != nil {
			return 0, "", nil, corrupt(err)
		}
		mods = append(mods, m)
	}
	mm, err := trace.NewModuleMap(app, mods)
	if err != nil {
		return 0, "", nil, corrupt(err)
	}
	return int(pid), app, mm, nil
}

package serve

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"time"
	"unicode"
	"unicode/utf8"

	"repro/internal/trace"
)

// Event batches are the ingest hot path, so they are decoded by hand in
// one pass: the decoder validates the JSON grammar and emits
// trace.Events directly, with no reflection and no intermediate
// EventSpecs. Its contract, pinned by FuzzDecodeEventBatch, is that it
// accepts exactly the bodies that json.Decoder.Decode into an EventBatch
// followed by EventSpec.Event per element accepts, yielding deep-equal
// events. The one deliberate difference: an object that sets the same
// field twice (keys compared as encoding/json matches them, so "pid"
// and "PID" collide) is rejected, where encoding/json silently merges.

// maxJSONDepth is encoding/json's nesting limit: nesting arrays and
// objects deeper is a syntax error there, so it is one here.
const maxJSONDepth = 10000

// maxPooledBody caps the body buffer a pooled decoder keeps, so one
// oversized batch does not pin its buffer for the life of the pool.
const maxPooledBody = 1 << 20

// stackCache memoises one session's resolved stack walks, keyed by the
// raw bytes of the stack array that carried each, from '[' through ']'.
// Ingest traffic repeats a process's call sites constantly, so most
// events find their array's bytes here and skip tokenising, number
// parsing and symbol resolution. Bytes that decoded once decode the same
// way again, so a hit returns exactly what the parse would have; a stack
// spelled differently (whitespace inside the array, null for an address)
// resolves once more under its own key. A cached walk is shared by
// every event that carried the same stack, which is safe because
// nothing downstream of ingest mutates an event's stack. The cache is
// derived state: it is never checkpointed, spooled or handed off, and a
// restored or imported session starts empty. It holds at most
// trace.CacheWalks walks of trace.CacheFrames frames and cacheKeyBytes
// key bytes in all: a full cache is emptied and refills, so a session
// whose call sites drift keeps its hit rate, and a walk deeper than the
// frame bound, or an array longer than the byte bound, is resolved but
// not cached. Real processes walk a few hundred distinct call sites at
// most.
type stackCache struct {
	mu     sync.Mutex
	walks  map[string]trace.StackWalk
	frames int // in walks
	bytes  int // of walks' keys
}

// cacheKeyBytes bounds a stack cache's key bytes: 24 per cacheable frame,
// room for a 20-digit address, its comma and a walk's brackets, so a
// compact array never reaches it before trace.CacheFrames. Without it,
// whitespace-padded arrays could pin up to the body cap per walk.
const cacheKeyBytes = 24 * trace.CacheFrames

// lookup returns the walk cached under a stack array's raw bytes.
func (c *stackCache) lookup(raw []byte) (trace.StackWalk, bool) {
	c.mu.Lock()
	w, ok := c.walks[string(raw)]
	c.mu.Unlock()
	return w, ok
}

// store caches the resolved walk w of the stack array raw and returns
// the walk now cached under raw: w, or the one a concurrent batch stored
// first. A walk past either per-entry bound is returned uncached.
func (c *stackCache) store(raw []byte, w trace.StackWalk) trace.StackWalk {
	if len(w) > trace.CacheFrames || len(raw) > cacheKeyBytes {
		return w
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if prev, ok := c.walks[string(raw)]; ok {
		return prev
	}
	if c.walks == nil {
		c.walks = make(map[string]trace.StackWalk)
	} else if len(c.walks) == trace.CacheWalks || c.frames+len(w) > trace.CacheFrames ||
		c.bytes+len(raw) > cacheKeyBytes {
		clear(c.walks)
		c.frames, c.bytes = 0, 0
	}
	c.walks[string(raw)] = w
	c.frames += len(w)
	c.bytes += len(raw)
	return w
}

// batchField is the struct field an object key decodes into.
type batchField uint8

const (
	fieldUnknown batchField = iota
	fieldEvents
	fieldType
	fieldTimeNS
	fieldPID
	fieldTID
	fieldStack
)

// fieldNames are the fields' JSON names, indexed by batchField.
var fieldNames = [...]string{
	fieldEvents: "events",
	fieldType:   "type",
	fieldTimeNS: "time_ns",
	fieldPID:    "pid",
	fieldTID:    "tid",
	fieldStack:  "stack",
}

// eventTypes maps canonical event-type names to types, as
// trace.ParseEventType does.
var eventTypes = func() map[string]trace.EventType {
	m := make(map[string]trace.EventType)
	for t := trace.EventType(0); int(t) < trace.NumEventTypes(); t++ {
		if t.Valid() {
			m[t.String()] = t
		}
	}
	return m
}()

// batchDecoder holds one ingest request's body and the scratch of its
// decode. Decoders are pooled, so steady-state ingest reuses both.
type batchDecoder struct {
	body   bytes.Buffer
	data   []byte
	pos    int
	addrs  []uint64      // frame addresses of the stack being read
	events []trace.Event // decoded so far; copied out exactly sized
	mm     *trace.ModuleMap
	stacks *stackCache
}

var decoders = sync.Pool{New: func() any { return new(batchDecoder) }}

// release returns the decoder to the pool unless its body buffer grew
// past maxPooledBody.
func (d *batchDecoder) release() {
	if d.body.Cap() <= maxPooledBody {
		decoders.Put(d)
	}
}

// decodeEventBatch decodes an event-batch body, resolving its stacks
// against mm through stacks.
func decodeEventBatch(data []byte, mm *trace.ModuleMap, stacks *stackCache) ([]trace.Event, error) {
	d := decoders.Get().(*batchDecoder)
	defer d.release()
	return d.decode(data, mm, stacks)
}

func (d *batchDecoder) decode(data []byte, mm *trace.ModuleMap, stacks *stackCache) ([]trace.Event, error) {
	d.data, d.pos, d.mm, d.stacks = data, 0, mm, stacks
	err := d.batch()
	var out []trace.Event
	if err == nil {
		out = make([]trace.Event, len(d.events))
		copy(out, d.events)
	}
	clear(d.events) // the pooled scratch must not pin cached walks
	d.events = d.events[:0]
	d.data, d.mm, d.stacks = nil, nil, nil
	return out, err
}

// batch reads the top-level value. Like json.Decoder.Decode it stops at
// the end of that value and never looks at trailing bytes, and a null
// batch is an empty one.
func (d *batchDecoder) batch() error {
	d.ws()
	switch d.peek() {
	case '{':
		d.pos++
	case 'n':
		return d.literal("null")
	default:
		if d.pos == len(d.data) {
			return d.syntax("")
		}
		return fmt.Errorf("body is not an event batch object")
	}
	var seen bool
	for first := true; ; first = false {
		key, ok, err := d.member(first)
		if err != nil || !ok {
			return err
		}
		if fieldOf(key) != fieldEvents {
			if err := d.skip(1); err != nil {
				return err
			}
			continue
		}
		if seen {
			return fmt.Errorf("field %q set twice", "events")
		}
		seen = true
		if err := d.eventList(); err != nil {
			return err
		}
	}
}

func (d *batchDecoder) eventList() error {
	switch d.peek() {
	case '[':
		d.pos++
	case 'n':
		return d.literal("null")
	default:
		return d.mismatch("events", "an array")
	}
	for first := true; ; first = false {
		ok, err := d.element(first)
		if err != nil || !ok {
			return err
		}
		ev, err := d.event()
		if err != nil {
			return fmt.Errorf("event %d: %w", len(d.events), err)
		}
		d.events = append(d.events, ev)
	}
}

// event reads one event object. A null element decodes, as in
// encoding/json, to a zero EventSpec, whose empty type is unknown.
func (d *batchDecoder) event() (trace.Event, error) {
	var ev trace.Event
	switch d.peek() {
	case '{':
		d.pos++
	case 'n':
		if err := d.literal("null"); err != nil {
			return ev, err
		}
		return ev, unknownType("")
	default:
		return ev, d.mismatch("event", "an object")
	}
	var seen uint8 // bit f set once field f has been read
	for first := true; ; first = false {
		key, ok, err := d.member(first)
		if err != nil {
			return ev, err
		}
		if !ok {
			break
		}
		f := fieldOf(key)
		if f == fieldUnknown || f == fieldEvents {
			if err := d.skip(3); err != nil {
				return ev, err
			}
			continue
		}
		if seen&(1<<f) != 0 {
			return ev, fmt.Errorf("field %q set twice", fieldNames[f])
		}
		seen |= 1 << f
		switch f {
		case fieldType:
			ev.Type, err = d.eventType()
		case fieldTimeNS:
			var ns int64
			if ns, err = d.integer(fieldNames[f]); ns != 0 {
				ev.Time = time.Unix(0, ns)
			}
		case fieldPID:
			ev.PID, err = d.intField(fieldNames[f])
		case fieldTID:
			ev.TID, err = d.intField(fieldNames[f])
		case fieldStack:
			ev.Stack, err = d.stack()
		}
		if err != nil {
			return ev, err
		}
	}
	if seen&(1<<fieldType) == 0 {
		return ev, unknownType("")
	}
	return ev, nil
}

func unknownType(name string) error {
	return fmt.Errorf("serve: unknown event type %q", name)
}

// eventType reads the type field. A null leaves the type empty, which
// no event type is named.
func (d *batchDecoder) eventType() (trace.EventType, error) {
	var raw []byte
	switch d.peek() {
	case '"':
		var err error
		if raw, err = d.str(); err != nil {
			return 0, err
		}
	case 'n':
		if err := d.literal("null"); err != nil {
			return 0, err
		}
	default:
		return 0, d.mismatch("type", "a string")
	}
	name := unquote(raw)
	if t, ok := eventTypes[string(name)]; ok {
		return t, nil
	}
	return 0, unknownType(string(name))
}

// intField reads an int field, accepting what json.Unmarshal accepts
// for an int.
func (d *batchDecoder) intField(field string) (int, error) {
	v, err := d.integer(field)
	if err == nil && int64(int(v)) != v {
		err = fmt.Errorf("%s: %d overflows int", field, v)
	}
	return int(v), err
}

// integer reads a signed field as strconv.ParseInt(lit, 10, 64) accepts
// it: no fraction, no exponent, no overflow. A null reads as 0.
func (d *batchDecoder) integer(field string) (int64, error) {
	switch c := d.peek(); {
	case c == 'n':
		return 0, d.literal("null")
	case c == '-':
		d.pos++
		u, err := d.digits(field)
		if err == nil && u > 1<<63 {
			err = fmt.Errorf("%s: -%d overflows int64", field, u)
		}
		return -int64(u), err
	case c >= '0' && c <= '9':
		u, err := d.digits(field)
		if err == nil && u > math.MaxInt64 {
			err = fmt.Errorf("%s: %d overflows int64", field, u)
		}
		return int64(u), err
	default:
		return 0, d.mismatch(field, "an integer")
	}
}

// stack reads a stack array and returns its resolved walk through the
// session cache; empty and null stacks are nil, as EventSpec.Event has
// them. A valid stack array holds only numbers, nulls, commas and
// whitespace, so its first ']' closes it: when the bytes up to there are
// a cache key, they were validated and resolved before, and their walk
// is returned without reading them again.
func (d *batchDecoder) stack() (trace.StackWalk, error) {
	switch d.peek() {
	case '[':
	case 'n':
		return nil, d.literal("null")
	default:
		return nil, d.mismatch("stack", "an array")
	}
	start := d.pos
	if n := bytes.IndexByte(d.data[start:min(len(d.data), start+cacheKeyBytes)], ']'); n >= 0 {
		if w, ok := d.stacks.lookup(d.data[start : start+n+1]); ok {
			d.pos = start + n + 1
			return w, nil
		}
	}
	d.pos++
	d.addrs = d.addrs[:0]
	for first := true; ; first = false {
		ok, err := d.element(first)
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		var addr uint64
		switch c := d.peek(); {
		case c == 'n': // a null frame decodes to address 0
			err = d.literal("null")
		case c >= '0' && c <= '9':
			addr, err = d.digits("stack")
		default:
			err = d.mismatch("stack", "unsigned integers")
		}
		if err != nil {
			return nil, err
		}
		d.addrs = append(d.addrs, addr)
	}
	if len(d.addrs) == 0 {
		return nil, nil
	}
	w := make(trace.StackWalk, len(d.addrs))
	for i, addr := range d.addrs {
		w[i].Addr = addr
	}
	d.mm.ResolveStack(w)
	return d.stacks.store(d.data[start:d.pos], w), nil
}

// digits reads the unsigned magnitude of a number literal. It refuses
// what strconv.ParseUint(lit, 10, 64) refuses — fractions, exponents,
// overflow — besides invalid grammar.
func (d *batchDecoder) digits(field string) (uint64, error) {
	const cutoff = math.MaxUint64 / 10
	data, start := d.data, d.pos
	i := start
	var v uint64
	for ; i < len(data); i++ {
		dig := uint64(data[i] - '0')
		if dig > 9 {
			break
		}
		// Nineteen digits always fit; only a twentieth can overflow.
		if i-start >= 19 && (v > cutoff || v == cutoff && dig > math.MaxUint64%10) {
			d.pos = i
			return 0, fmt.Errorf("%s: number overflows 64 bits", field)
		}
		v = v*10 + dig
	}
	d.pos = i
	if n := i - start; n == 0 || n > 1 && data[start] == '0' {
		return 0, d.syntax("in numeric literal")
	}
	if c := d.peek(); c == '.' || c == 'e' || c == 'E' {
		return 0, d.mismatch(field, "an integer")
	}
	return v, nil
}

// member advances to the next member of the object being read (its '{'
// consumed) and returns the member's raw key, leaving the decoder at the
// value; ok is false once the closing brace is consumed.
func (d *batchDecoder) member(first bool) (key []byte, ok bool, err error) {
	d.ws()
	if d.peek() == '}' {
		d.pos++
		return nil, false, nil
	}
	if !first {
		if d.peek() != ',' {
			return nil, false, d.syntax("after object member")
		}
		d.pos++
		d.ws()
	}
	if d.peek() != '"' {
		return nil, false, d.syntax("looking for an object key")
	}
	if key, err = d.str(); err != nil {
		return nil, false, err
	}
	d.ws()
	if d.peek() != ':' {
		return nil, false, d.syntax("after object key")
	}
	d.pos++
	d.ws()
	return key, true, nil
}

// element advances to the next element of the array being read (its '['
// consumed); ok is false once the closing bracket is consumed.
func (d *batchDecoder) element(first bool) (ok bool, err error) {
	d.ws()
	if d.peek() == ']' {
		d.pos++
		return false, nil
	}
	if !first {
		if d.peek() != ',' {
			return false, d.syntax("after array element")
		}
		d.pos++
		d.ws()
	}
	return true, nil
}

// skip consumes a value no field claims, validating its grammar and
// nesting without decoding it; depth is the nesting of its container.
func (d *batchDecoder) skip(depth int) error {
	switch c := d.peek(); c {
	case '{', '[':
		if depth++; depth > maxJSONDepth {
			return d.syntax("exceeded max depth")
		}
		d.pos++
		for first := true; ; first = false {
			var ok bool
			var err error
			if c == '{' {
				_, ok, err = d.member(first)
			} else {
				ok, err = d.element(first)
			}
			if err != nil || !ok {
				return err
			}
			if err := d.skip(depth); err != nil {
				return err
			}
		}
	case '"':
		_, err := d.str()
		return err
	case 't':
		return d.literal("true")
	case 'f':
		return d.literal("false")
	case 'n':
		return d.literal("null")
	default:
		return d.number()
	}
}

// number consumes a number literal of any size and form.
func (d *batchDecoder) number() error {
	if d.peek() == '-' {
		d.pos++
	}
	switch c := d.peek(); {
	case c == '0':
		d.pos++
	case c >= '1' && c <= '9':
		d.run()
	default:
		return d.syntax("in numeric literal")
	}
	if d.peek() == '.' {
		d.pos++
		if !d.run() {
			return d.syntax("after decimal point in numeric literal")
		}
	}
	if c := d.peek(); c == 'e' || c == 'E' {
		d.pos++
		if c := d.peek(); c == '+' || c == '-' {
			d.pos++
		}
		if !d.run() {
			return d.syntax("in exponent of numeric literal")
		}
	}
	return nil
}

// run consumes a run of decimal digits, reporting whether it was
// non-empty.
func (d *batchDecoder) run() bool {
	start := d.pos
	for d.pos < len(d.data) && isDigit(d.data[d.pos]) {
		d.pos++
	}
	return d.pos > start
}

// str consumes a string literal, validated as encoding/json's scanner
// validates it — no raw control characters, only JSON escapes, UTF-8
// unchecked — and returns its raw contents between the quotes.
func (d *batchDecoder) str() ([]byte, error) {
	data := d.data
	d.pos++
	start := d.pos
	for {
		i := d.pos
		for i < len(data) && data[i] != '"' && data[i] != '\\' && data[i] >= ' ' {
			i++
		}
		d.pos = i
		switch d.peek() {
		case '"':
			d.pos++
			return data[start:i], nil
		case '\\':
			d.pos++
			switch d.peek() {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				d.pos++
			case 'u':
				d.pos++
				for j := 0; j < 4; j++ {
					if !isHex(d.peek()) {
						return nil, d.syntax("in \\u hexadecimal character escape")
					}
					d.pos++
				}
			default:
				return nil, d.syntax("in string escape code")
			}
		default: // a control character, or the end of input
			return nil, d.syntax("in string literal")
		}
	}
}

// literal consumes the keyword lit (true, false or null).
func (d *batchDecoder) literal(lit string) error {
	for i := 0; i < len(lit); i++ {
		if d.peek() != lit[i] {
			return d.syntax("in literal " + lit)
		}
		d.pos++
	}
	return nil
}

func (d *batchDecoder) ws() {
	data, i := d.data, d.pos
	for i < len(data) && (data[i] == ' ' || data[i] == '\n' || data[i] == '\t' || data[i] == '\r') {
		i++
	}
	d.pos = i
}

// peek returns the byte at the read position, or 0 at the end of input
// (a byte that is invalid wherever peek's callers look).
func (d *batchDecoder) peek() byte {
	if d.pos < len(d.data) {
		return d.data[d.pos]
	}
	return 0
}

func (d *batchDecoder) syntax(context string) error {
	if d.pos >= len(d.data) {
		return fmt.Errorf("unexpected end of JSON input")
	}
	return fmt.Errorf("invalid character %s %s at offset %d",
		strconv.QuoteRune(rune(d.data[d.pos])), context, d.pos)
}

// mismatch reports a well-formed value of the wrong kind for a field.
func (d *batchDecoder) mismatch(field, want string) error {
	if d.pos >= len(d.data) {
		return d.syntax("")
	}
	return fmt.Errorf("%s: want %s at offset %d", field, want, d.pos)
}

// fieldOf maps a raw object key (quotes stripped, escapes intact) to its
// field the way encoding/json matches keys to struct fields:
// case-insensitively, folding ASCII letters to upper case and any other
// rune to the smallest rune of its Unicode simple-folding orbit. So
// "PID", "pid" and "ſtack" (long s) all name fields.
func fieldOf(raw []byte) batchField {
	for f, name := range fieldNames { // the spellings clients send
		if string(raw) == name {
			return batchField(f)
		}
	}
	var folded [len("time_ns")]byte
	n := 0
	for _, r := range string(unquote(raw)) {
		if r >= utf8.RuneSelf {
			r = foldRune(r)
		}
		if r >= utf8.RuneSelf || n == len(folded) {
			return fieldUnknown // every field name is short ASCII
		}
		folded[n] = byte(r)
		n++
	}
	for f, name := range fieldNames {
		if strings.EqualFold(string(folded[:n]), name) { // ASCII only here
			return batchField(f)
		}
	}
	return fieldUnknown
}

// foldRune returns the smallest rune of r's simple-folding orbit.
func foldRune(r rune) rune {
	for {
		r2 := unicode.SimpleFold(r)
		if r2 <= r {
			return r2
		}
		r = r2
	}
}

// unquote decodes the escapes in a raw string literal's contents; raw
// is returned as-is when it holds none. Surrogate escapes decode to
// U+FFFD, which is all matching against ASCII names needs.
func unquote(raw []byte) []byte {
	if bytes.IndexByte(raw, '\\') < 0 {
		return raw
	}
	out := make([]byte, 0, len(raw))
	for i := 0; i < len(raw); i++ {
		if raw[i] != '\\' {
			out = append(out, raw[i])
			continue
		}
		i++
		switch c := raw[i]; c {
		case 'b':
			out = append(out, '\b')
		case 'f':
			out = append(out, '\f')
		case 'n':
			out = append(out, '\n')
		case 'r':
			out = append(out, '\r')
		case 't':
			out = append(out, '\t')
		case 'u':
			v, _ := strconv.ParseUint(string(raw[i+1:i+5]), 16, 16)
			out = utf8.AppendRune(out, rune(v))
			i += 4
		default: // '"', '\\', '/'
			out = append(out, c)
		}
	}
	return out
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

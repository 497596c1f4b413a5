// Package etl implements the raw event-trace-log layer of LEAPS: a compact
// binary container for system event streams with stack walks (standing in
// for Windows ETL files) and the raw-log parser that, like the Introperf
// front end the paper builds on, correlates stack-walk records with their
// system events and slices the stream per process into stack-event
// correlated logs.
//
// File layout (all integers little-endian):
//
//	magic "LETL" | version u16 | record*
//
// Records, each introduced by a one-byte tag:
//
//	recProcess: pid u32, app string, modules
//	    (module: name string, kind u8, base u64, size u64,
//	     symbol count u32, symbols (name string, addr u64))
//	recEvent:   type u16, time i64 (ns), pid u32, tid u32, flags u8
//	recStack:   pid u32, tid u32, frame count u16, addrs u64*
//	recEnd:     (nothing; terminates the stream)
//
// Strings are a u16 length followed by raw bytes. A recStack attaches to
// the most recent event of the same pid/tid that declared flagHasStack and
// has not yet received its walk — mirroring how ETW emits stack-walk events
// separately from the events that triggered them.
package etl

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Format constants.
const (
	magic   = "LETL"
	version = uint16(1)

	recProcess = 0x01
	recEvent   = 0x02
	recStack   = 0x03
	recEnd     = 0xFF

	flagHasStack = 0x01

	// maxString, maxFrames, maxModules and maxSymbols bound allocations
	// while parsing untrusted input.
	maxString  = 4096
	maxFrames  = 512
	maxModules = 4096
	maxSymbols = 1 << 20
)

// ErrCorrupt is wrapped by every parse error caused by malformed input.
var ErrCorrupt = errors.New("etl: corrupt file")

type countingWriter struct {
	w *bufio.Writer
	n int64
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}

func writeU8(w io.Writer, v uint8) error   { return binary.Write(w, binary.LittleEndian, v) }
func writeU16(w io.Writer, v uint16) error { return binary.Write(w, binary.LittleEndian, v) }
func writeU32(w io.Writer, v uint32) error { return binary.Write(w, binary.LittleEndian, v) }
func writeU64(w io.Writer, v uint64) error { return binary.Write(w, binary.LittleEndian, v) }
func writeI64(w io.Writer, v int64) error  { return binary.Write(w, binary.LittleEndian, v) }

func writeString(w io.Writer, s string) error {
	if len(s) > maxString {
		return fmt.Errorf("etl: string of %d bytes exceeds limit %d", len(s), maxString)
	}
	if err := writeU16(w, uint16(len(s))); err != nil {
		return err
	}
	_, err := io.WriteString(w, s)
	return err
}

// reader decodes little-endian primitives straight out of an in-memory
// stream, tracking the byte offset so lenient parsing can report where a
// record failed and resynchronize from there. A primitive that runs past
// the end of input consumes what was left and fails with a
// corrupt-wrapped io.EOF (nothing was left) or io.ErrUnexpectedEOF (a
// record was cut), so the offset lands on the truncation point.
type reader struct {
	data []byte
	pos  int
}

// peek returns up to n upcoming bytes without consuming them; an empty
// slice means end of input.
func (rd *reader) peek(n int) []byte {
	return rd.data[rd.pos:min(rd.pos+n, len(rd.data))]
}

// take consumes the next n bytes and returns them without copying.
func (rd *reader) take(n int) ([]byte, error) {
	if len(rd.data)-rd.pos < n {
		atEOF := rd.pos == len(rd.data)
		rd.pos = len(rd.data)
		if atEOF {
			return nil, corrupt(io.EOF)
		}
		return nil, corrupt(io.ErrUnexpectedEOF)
	}
	b := rd.data[rd.pos : rd.pos+n : rd.pos+n]
	rd.pos += n
	return b, nil
}

func (rd *reader) u8() (uint8, error) {
	b, err := rd.take(1)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

func (rd *reader) u16() (uint16, error) {
	b, err := rd.take(2)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint16(b), nil
}

func (rd *reader) u32() (uint32, error) {
	b, err := rd.take(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

func (rd *reader) u64() (uint64, error) {
	b, err := rd.take(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

func (rd *reader) str() (string, error) {
	n, err := rd.u16()
	if err != nil {
		return "", err
	}
	if int(n) > maxString {
		return "", corrupt(fmt.Errorf("string length %d exceeds limit", n))
	}
	b, err := rd.take(int(n))
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// corrupt wraps err with ErrCorrupt unless it already is one.
func corrupt(err error) error {
	if errors.Is(err, ErrCorrupt) {
		return err
	}
	return fmt.Errorf("%w: %v", ErrCorrupt, err)
}

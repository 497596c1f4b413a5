package etl

import (
	"encoding/binary"
	"fmt"
)

// Exported record tags, for tools (fault injectors, analyzers) that
// operate on serialized streams structurally.
const (
	TagProcess byte = recProcess
	TagEvent   byte = recEvent
	TagStack   byte = recStack
	TagEnd     byte = recEnd
)

// HeaderLen is the size of the stream header (magic + version).
const HeaderLen = len(magic) + 2

// RecordSpan locates one record inside a serialized stream.
type RecordSpan struct {
	// Offset is the byte position of the record's tag.
	Offset int64
	// Len is the record's total size including the tag byte.
	Len int
	// Tag identifies the record kind.
	Tag byte
}

// ScanRecords structurally walks a serialized stream and returns the
// span of every record, the header excluded. It validates lengths and
// bounds only, not content semantics, so it works on any stream the
// writer could have produced. The end record, when present, is the last
// span returned.
func ScanRecords(data []byte) ([]RecordSpan, error) {
	return ScanRecordsInto(nil, data)
}

// ScanRecordsInto is ScanRecords appending into dst (reusing its
// capacity), so repeated scans over a stream reuse one span buffer.
// Pass dst[:0] to recycle a previous result.
func ScanRecordsInto(dst []RecordSpan, data []byte) ([]RecordSpan, error) {
	if len(data) < HeaderLen || string(data[:len(magic)]) != magic {
		return nil, corrupt(fmt.Errorf("bad or short header"))
	}
	if v := binary.LittleEndian.Uint16(data[len(magic):HeaderLen]); v != version {
		return nil, corrupt(fmt.Errorf("unsupported version %d", v))
	}
	spans := dst
	pos := HeaderLen
	for pos < len(data) {
		start := pos
		tag := data[pos]
		n, err := recordLen(data[pos:])
		if err != nil {
			return nil, fmt.Errorf("record at offset %d: %w", start, err)
		}
		pos += n
		spans = append(spans, RecordSpan{Offset: int64(start), Len: n, Tag: tag})
		if tag == recEnd {
			break
		}
	}
	return spans, nil
}

// eventCounts counts, per pid, the event records that follow the pid's
// process record. It walks data's records with recordLen, as
// ScanRecords does, and stops at the end record or at the first record
// recordLen rejects, so a damaged stream counts its well-formed prefix.
// The parser makes a process's count the capacity of its Events; every
// counted event has a 20-byte record, so the capacities total at most
// len(data)/20 events.
func eventCounts(data []byte) map[int]int {
	counts := make(map[int]int)
	for pos := HeaderLen; pos < len(data); {
		n, err := recordLen(data[pos:])
		if err != nil {
			break
		}
		switch rec := data[pos : pos+n]; rec[0] {
		case recProcess:
			// Declares the pid: its later events count.
			counts[int(binary.LittleEndian.Uint32(rec[1:]))] += 0
		case recEvent:
			pid := int(binary.LittleEndian.Uint32(rec[11:]))
			if c, ok := counts[pid]; ok {
				counts[pid] = c + 1
			}
		case recEnd:
			return counts
		}
		pos += n
	}
	return counts
}

// recordLen computes the serialized size of the record starting at
// b[0], including the tag byte.
func recordLen(b []byte) (int, error) {
	need := func(pos, n int) error {
		if pos+n > len(b) {
			return corrupt(fmt.Errorf("truncated record (tag 0x%02x)", b[0]))
		}
		return nil
	}
	str := func(pos int) (int, error) {
		if err := need(pos, 2); err != nil {
			return 0, err
		}
		n := int(binary.LittleEndian.Uint16(b[pos : pos+2]))
		if n > maxString {
			return 0, corrupt(fmt.Errorf("string length %d exceeds limit", n))
		}
		if err := need(pos+2, n); err != nil {
			return 0, err
		}
		return 2 + n, nil
	}

	switch b[0] {
	case recEnd:
		return 1, nil

	case recEvent:
		// tag + type u16 + time i64 + pid u32 + tid u32 + flags u8
		if err := need(0, 20); err != nil {
			return 0, err
		}
		return 20, nil

	case recStack:
		// tag + pid u32 + tid u32 + count u16 + count*u64
		if err := need(0, 11); err != nil {
			return 0, err
		}
		n := int(binary.LittleEndian.Uint16(b[9:11]))
		if n > maxFrames {
			return 0, corrupt(fmt.Errorf("stack of %d frames exceeds limit", n))
		}
		if err := need(11, 8*n); err != nil {
			return 0, err
		}
		return 11 + 8*n, nil

	case recProcess:
		// tag + pid u32 + app string + module count u32 + modules
		pos := 5
		sn, err := str(pos)
		if err != nil {
			return 0, err
		}
		pos += sn
		if err := need(pos, 4); err != nil {
			return 0, err
		}
		nMods := binary.LittleEndian.Uint32(b[pos : pos+4])
		pos += 4
		if nMods > maxModules {
			return 0, corrupt(fmt.Errorf("module count %d exceeds limit", nMods))
		}
		for i := uint32(0); i < nMods; i++ {
			// name string + kind u8 + base u64 + size u64 + sym count u32
			sn, err := str(pos)
			if err != nil {
				return 0, err
			}
			pos += sn
			if err := need(pos, 1+8+8+4); err != nil {
				return 0, err
			}
			nSyms := binary.LittleEndian.Uint32(b[pos+17 : pos+21])
			pos += 21
			if nSyms > maxSymbols {
				return 0, corrupt(fmt.Errorf("symbol count %d exceeds limit", nSyms))
			}
			for j := uint32(0); j < nSyms; j++ {
				sn, err := str(pos)
				if err != nil {
					return 0, err
				}
				pos += sn
				if err := need(pos, 8); err != nil {
					return 0, err
				}
				pos += 8
			}
		}
		return pos, nil
	}
	return 0, corrupt(fmt.Errorf("unknown record tag 0x%02x", b[0]))
}

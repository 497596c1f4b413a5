package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
)

// ingestReplyOf builds the result FuzzIngestReply encodes: n verdicts
// whose window bounds step from first and last, whose score and
// probability bits step from the given ones (so verdict 0 carries them
// exactly) and whose malicious flags are the bits of flags. With no
// verdicts, the low bit of flags picks an empty slice over a nil one.
func ingestReplyOf(consumed, skipped int, n uint8, first, last int, score, prob uint64, flags uint8) IngestResult {
	res := IngestResult{Consumed: consumed, Skipped: skipped}
	if n == 0 {
		if flags&1 != 0 {
			res.Verdicts = []Verdict{}
		}
		return res
	}
	res.Verdicts = make([]Verdict, n)
	for i := range res.Verdicts {
		res.Verdicts[i] = Verdict{
			FirstEvent:  first + i*(last-first+1),
			LastEvent:   last + i*(last-first+1),
			Score:       math.Float64frombits(score + uint64(i)),
			Probability: math.Float64frombits(prob - uint64(i)),
			Malicious:   flags>>(i%8)&1 != 0,
		}
	}
	return res
}

// FuzzIngestReply holds writeIngest to the reply handleEvents wrote
// through writeJSON: the same status, Content-Type and bytes whenever
// encoding/json can encode the result (a nil Verdicts written as an
// empty one), and a 500 with the error envelope when a score or
// probability is not finite.
func FuzzIngestReply(f *testing.F) {
	half := math.Float64bits(0.5)
	for _, v := range []float64{
		0, math.Copysign(0, -1),
		1e-6, math.Nextafter(1e-6, 0), -1e-6,
		1e21, math.Nextafter(1e21, 0), -1e21,
		math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64,
		-0.3721, 123456.789,
		math.NaN(), math.Inf(1), math.Inf(-1),
	} {
		f.Add(200, 0, uint8(1), 0, 9, math.Float64bits(v), half, uint8(1))
		f.Add(200, 0, uint8(2), 10, 19, half, math.Float64bits(v), uint8(2))
	}
	f.Add(0, 0, uint8(0), 0, 0, uint64(0), uint64(0), uint8(1))               // no verdicts
	f.Add(0, 0, uint8(0), 0, 0, uint64(0), uint64(0), uint8(0))               // nil Verdicts
	f.Add(256, 3, uint8(26), 0, 9, math.Float64bits(-1.5), half, uint8(0xa5)) // a bench-sized reply
	f.Add(-1, math.MinInt64, uint8(3), math.MaxInt64, math.MinInt64, ^uint64(0), uint64(1), uint8(0xff))
	f.Fuzz(func(t *testing.T, consumed, skipped int, n uint8, first, last int, score, prob uint64, flags uint8) {
		res := ingestReplyOf(consumed, skipped, n, first, last, score, prob, flags)
		got := httptest.NewRecorder()
		writeIngest(got, &res)
		if ct := got.Header().Get("Content-Type"); ct != "application/json" {
			t.Fatalf("Content-Type %q", ct)
		}
		if _, err := json.Marshal(res); err != nil {
			var env apiError
			if got.Code != http.StatusInternalServerError || json.Unmarshal(got.Body.Bytes(), &env) != nil || env.Error == "" {
				t.Fatalf("result encoding/json refuses (%v) answered %d %q, want 500 with an error envelope", err, got.Code, got.Body)
			}
			return
		}
		if res.Verdicts == nil {
			res.Verdicts = []Verdict{}
		}
		want := httptest.NewRecorder()
		writeJSON(want, http.StatusOK, res)
		if got.Code != want.Code || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
			t.Fatalf("reply %d %q, writeJSON %d %q", got.Code, got.Body, want.Code, want.Body)
		}
		if cl := got.Header().Get("Content-Length"); cl != strconv.Itoa(got.Body.Len()) {
			t.Fatalf("Content-Length %q for a %d-byte body", cl, got.Body.Len())
		}
	})
}

// TestAppendIngestResultAllocs pins the reply encoder's warm cost: a
// 26-verdict result, about what a 256-event batch completes, encodes
// into a recycled buffer with no allocation.
func TestAppendIngestResultAllocs(t *testing.T) {
	res := ingestReplyOf(256, 0, 26, 0, 9, math.Float64bits(-0.3721), math.Float64bits(0.83), 0x5a)
	b, err := appendIngestResult(nil, &res)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { b, _ = appendIngestResult(b[:0], &res) }); n != 0 {
		t.Errorf("encoding a 26-verdict reply into a recycled buffer allocated %v times, want 0", n)
	}
}

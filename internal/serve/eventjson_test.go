package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/trace"
)

// decoderLog is a small generated log whose module map and events shape
// the decoder's fixtures; generation is cheap, unlike newTestModel's
// training, so fuzz workers start fast.
var (
	decoderLogOnce sync.Once
	decoderLogVal  *trace.Log
	decoderLogErr  error
)

func decoderFixture(tb testing.TB) (*trace.ModuleMap, *trace.Log) {
	tb.Helper()
	decoderLogOnce.Do(func() {
		spec, err := dataset.ByName("vim_reverse_tcp")
		if err != nil {
			decoderLogErr = err
			return
		}
		spec.BenignEvents, spec.MixedEvents, spec.MaliciousEvents = 200, 200, 2048
		logs, err := spec.Generate(3)
		if err != nil {
			decoderLogErr = err
			return
		}
		decoderLogVal = logs.Malicious
	})
	if decoderLogErr != nil {
		tb.Fatal(decoderLogErr)
	}
	spec := SessionSpecOf(decoderLogVal, "")
	mm, err := spec.ModuleMap()
	if err != nil {
		tb.Fatal(err)
	}
	return mm, decoderLogVal
}

// referenceDecode is the decoder's specification: encoding/json into the
// wire types, then EventSpec.Event per element.
func referenceDecode(body []byte, mm *trace.ModuleMap) ([]trace.Event, error) {
	var batch EventBatch
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&batch); err != nil {
		return nil, err
	}
	out := make([]trace.Event, len(batch.Events))
	for i := range batch.Events {
		ev, err := batch.Events[i].Event(mm)
		if err != nil {
			return nil, err
		}
		out[i] = ev
	}
	return out, nil
}

// setsFieldTwice reports whether body's batch object, or an event object
// in its events array, holds two keys that select the same field. Which
// field a key selects is asked of encoding/json itself, so the check is
// independent of the decoder under test.
func setsFieldTwice(body []byte) bool {
	batch, ok := objectMembers(body)
	if !ok {
		return false
	}
	var batchProbe struct {
		Events any `json:"events"`
	}
	if repeatsField(batch, &batchProbe) {
		return true
	}
	for _, m := range batch {
		if selectedField(m.key, &batchProbe) != "Events" {
			continue
		}
		var elems []json.RawMessage
		if json.Unmarshal(m.value, &elems) != nil {
			continue
		}
		for _, e := range elems {
			var eventProbe struct {
				Type   any `json:"type"`
				TimeNS any `json:"time_ns"`
				PID    any `json:"pid"`
				TID    any `json:"tid"`
				Stack  any `json:"stack"`
			}
			if ms, ok := objectMembers(e); ok && repeatsField(ms, &eventProbe) {
				return true
			}
		}
	}
	return false
}

type objectMember struct {
	key   string
	value json.RawMessage
}

// objectMembers lists the members of the object starting b, in order and
// with repeats kept.
func objectMembers(b []byte) ([]objectMember, bool) {
	dec := json.NewDecoder(bytes.NewReader(b))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return nil, false
	}
	var out []objectMember
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			return nil, false
		}
		key, ok := tok.(string)
		if !ok {
			return nil, false
		}
		var v json.RawMessage
		if err := dec.Decode(&v); err != nil {
			return nil, false
		}
		out = append(out, objectMember{key, v})
	}
	return out, true
}

func repeatsField(ms []objectMember, probe any) bool {
	seen := map[string]bool{}
	for _, m := range ms {
		f := selectedField(m.key, probe)
		if f != "" && seen[f] {
			return true
		}
		seen[f] = f != ""
	}
	return false
}

// selectedField decodes {key: 0} into the probe struct (all fields of
// type any) and returns the name of the field encoding/json set, or "".
func selectedField(key string, probe any) string {
	k, _ := json.Marshal(key)
	v := reflect.ValueOf(probe).Elem()
	v.SetZero()
	if json.Unmarshal([]byte(`{`+string(k)+`:0}`), probe) != nil {
		return ""
	}
	for i := 0; i < v.NumField(); i++ {
		if !v.Field(i).IsNil() {
			return v.Type().Field(i).Name
		}
	}
	return ""
}

func sameEvents(a, b []trace.Event) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}

// checkDecode holds the decoder to its contract on one body and reports
// whether it accepted. The duplicate-field oracle is costly, so it runs
// only where its answer matters: when the decoder accepts or the two
// decoders disagree.
func checkDecode(t *testing.T, body []byte, mm *trace.ModuleMap, stacks *stackCache) bool {
	t.Helper()
	got, err := decodeEventBatch(body, mm, stacks)
	want, refErr := referenceDecode(body, mm)
	if err != nil && refErr != nil {
		return false
	}
	if setsFieldTwice(body) {
		if err == nil {
			t.Fatalf("accepted a body that sets a field twice: %q", body)
		}
		return false
	}
	if (err == nil) != (refErr == nil) {
		t.Fatalf("decoder error %v, reference error %v, body %q", err, refErr, body)
	}
	if !sameEvents(got, want) {
		t.Fatalf("decoded events differ from the reference for body %q:\n got %+v\nwant %+v", body, got, want)
	}
	return true
}

// nested wraps an innermost array in n-1 more arrays under an unknown
// key: the batch object plus n arrays nest n+1 deep.
func nested(n int) string {
	return `{"x":` + strings.Repeat("[", n) + strings.Repeat("]", n) + `}`
}

// decodeCases pin the decoder's edge semantics; each also seeds the fuzz
// target. accept is the expected outcome, which the reference shares
// except where a field is set twice.
var decodeCases = []struct {
	name   string
	body   string
	accept bool
}{
	{"empty batch", `{"events":[]}`, true},
	{"null batch", `null`, true},
	{"null events", `{"events":null}`, true},
	{"no events key", `{"other":1}`, true},
	{"full event", `{"events":[{"type":"FileRead","time_ns":1200,"pid":4001,"tid":4002,"stack":[4198400,0,18446744073709551615]}]}`, true},
	{"whitespace", " \t\r\n{ \"events\" : [ { \"type\" : \"NetSend\" , \"stack\" : [ 1 , 2 ] } ] } ", true},
	{"escaped type", `{"events":[{"type":"File\u0052ead"}]}`, true},
	{"escaped key", `{"\u0065vents":[{"\u0074ype":"FileRead"}]}`, true},
	{"escaped unknown key", `{"events":[{"type":"FileRead","t\"y\\pe\/\b\f\n\r\t":1}]}`, true},
	{"case-folded keys", `{"EVENTS":[{"Type":"FileRead","PID":7,"Tid":8,"STACK":[5],"Time_NS":9}]}`, true},
	{"long s folds to s", `{"events":[{"type":"FileRead","ſtack":[4198400]}]}`, true},
	{"escaped long s", `{"events":[{"type":"FileRead","\u017ftack":[4198400]}]}`, true},
	{"kelvin sign folds to k", `{"events":[{"type":"FileRead","stac\u212a":[4198400]}]}`, true},
	{"dotless i is not i", `{"events":[{"type":"FileRead","p\u0131d":"ignored"}]}`, true},
	{"null fields", `{"events":[{"type":"FileRead","time_ns":null,"pid":null,"tid":null,"stack":null}]}`, true},
	{"null frame", `{"events":[{"type":"FileRead","stack":[null,4198400]}]}`, true},
	{"negative zero pid", `{"events":[{"type":"FileRead","pid":-0,"tid":-9223372036854775808}]}`, true},
	{"unknown nested members", `{"meta":{"a":[1,-2.5e+3,true,false,null,"s",{}]},"events":[{"x":[[{}]],"type":"MemFree"}]}`, true},
	{"trailing bytes", `{"events":[{"type":"FileRead"}]} trailing {`, true},
	{"trailing after null", `nullx`, true},
	{"invalid utf-8 in unknown value", "{\"events\":[{\"type\":\"FileRead\",\"x\":\"\xff\xfe\"}]}", true},
	{"depth at limit", nested(maxJSONDepth - 1), true},

	{"type twice", `{"events":[{"type":"FileRead","type":"FileWrite"}]}`, false},
	{"type twice folded", `{"events":[{"type":null,"TYPE":"FileRead"}]}`, false},
	{"stack twice folded", `{"events":[{"type":"FileRead","stack":[1],"ſtack":[2]}]}`, false},
	{"events twice", `{"events":[{"type":"FileRead"}],"Events":[{"pid":3}]}`, false},
	{"depth past limit", nested(maxJSONDepth), false},
	{"empty body", ``, false},
	{"whitespace body", " \n", false},
	{"array body", `[]`, false},
	{"string body", `"events"`, false},
	{"null event", `{"events":[null]}`, false},
	{"missing type", `{"events":[{"pid":1}]}`, false},
	{"null type", `{"events":[{"type":null}]}`, false},
	{"unknown type", `{"events":[{"type":"Nonsense"}]}`, false},
	{"type Unknown", `{"events":[{"type":"Unknown"}]}`, false},
	{"type case matters", `{"events":[{"type":"fileread"}]}`, false},
	{"numeric type", `{"events":[{"type":3}]}`, false},
	{"fractional pid", `{"events":[{"type":"FileRead","pid":1.5}]}`, false},
	{"exponent pid", `{"events":[{"type":"FileRead","pid":1e3}]}`, false},
	{"string pid", `{"events":[{"type":"FileRead","pid":"1"}]}`, false},
	{"pid overflow", `{"events":[{"type":"FileRead","pid":9223372036854775808}]}`, false},
	{"negative frame", `{"events":[{"type":"FileRead","stack":[-1]}]}`, false},
	{"frame overflow", `{"events":[{"type":"FileRead","stack":[18446744073709551616]}]}`, false},
	{"frame object", `{"events":[{"type":"FileRead","stack":[{}]}]}`, false},
	{"stack object", `{"events":[{"type":"FileRead","stack":{}}]}`, false},
	{"events object", `{"events":{}}`, false},
	{"leading zero", `{"events":[{"type":"FileRead","stack":[01]}]}`, false},
	{"trailing comma", `{"events":[{"type":"FileRead",}]}`, false},
	{"trailing comma in array", `{"events":[{"type":"FileRead"},]}`, false},
	{"bad escape", `{"events":[{"type":"FileRead","x":"\x"}]}`, false},
	{"short unicode escape", `{"events":[{"type":"FileRead","x":"\u12G4"}]}`, false},
	{"raw control character", "{\"events\":[{\"type\":\"FileRead\",\"x\":\"a\tb\"}]}", false},
	{"bad literal", `{"events":[{"type":"FileRead","x":nul}]}`, false},
	{"bad number in unknown", `{"events":[{"type":"FileRead","x":1.}]}`, false},
	{"truncated", `{"events":[{"type":"FileRead"`, false},
	{"missing colon", `{"events" []}`, false},
}

// batchBodies renders events as compact (bench-shaped) and indented
// (leaps-trace -serve-json shaped) batch bodies.
func batchBodies(tb testing.TB, events []trace.Event) (compact, indented []byte) {
	tb.Helper()
	batch := EventBatch{Events: EventSpecsOf(events)}
	compact, err := json.Marshal(batch)
	if err != nil {
		tb.Fatal(err)
	}
	indented, err = json.MarshalIndent(batch, "", "  ")
	if err != nil {
		tb.Fatal(err)
	}
	return compact, indented
}

func TestDecodeEventBatchCases(t *testing.T) {
	mm, _ := decoderFixture(t)
	for _, c := range decodeCases {
		t.Run(c.name, func(t *testing.T) {
			if got := checkDecode(t, []byte(c.body), mm, new(stackCache)); got != c.accept {
				t.Errorf("accepted = %v, want %v", got, c.accept)
			}
		})
	}
}

// TestDecodeEventBatchBodies cross-checks whole generated logs in both
// client encodings, through one session cache.
func TestDecodeEventBatchBodies(t *testing.T) {
	mm, log := decoderFixture(t)
	stacks := new(stackCache)
	compact, indented := batchBodies(t, log.Events)
	for _, body := range [][]byte{compact, indented, compact} {
		if !checkDecode(t, body, mm, stacks) {
			t.Fatal("generated batch rejected")
		}
	}
}

// TestStackCacheBound feeds one session more distinct stacks than the
// cache holds: two-frame walks that reach its walk bound, full walks
// that reach its frame bound, and walks deeper than the frame bound,
// which are never cached. The cache stays within both bounds, reaches
// the one each input stresses, and every event still matches the
// reference.
func TestStackCacheBound(t *testing.T) {
	mm, log := decoderFixture(t)
	// distinct returns n events of log whose stacks, cut by cut, carry a
	// walk per event.
	distinct := func(n int, cut func(trace.StackWalk) trace.StackWalk) []trace.Event {
		var events []trace.Event
		for i := 0; len(events) < n; i++ {
			e := log.Events[i%len(log.Events)].Clone()
			if len(e.Stack) == 0 {
				continue
			}
			e.Stack = cut(e.Stack)
			e.Stack[0].Addr += uint64(len(events))
			events = append(events, e)
		}
		return events
	}
	var deep trace.StackWalk
	for i := 0; len(deep) <= trace.CacheFrames; i++ {
		deep = append(deep, log.Events[i%len(log.Events)].Stack...)
	}
	for _, c := range []struct {
		name   string
		events []trace.Event
		batch  int
		// reached reports whether the cache reached the bound the input
		// stresses.
		reached func(walks, frames int) bool
	}{
		{"short", distinct(3*trace.CacheWalks, func(st trace.StackWalk) trace.StackWalk { return st[:min(2, len(st))] }), 256,
			func(walks, _ int) bool { return walks == trace.CacheWalks }},
		{"full", distinct(3*trace.CacheWalks, func(st trace.StackWalk) trace.StackWalk { return st }), 16,
			func(walks, frames int) bool { return walks < trace.CacheWalks && frames > trace.CacheFrames-512 }},
		{"deep", distinct(20, func(trace.StackWalk) trace.StackWalk { return deep.Clone() }), 4,
			func(walks, _ int) bool { return walks == 0 }},
	} {
		stacks := new(stackCache)
		reached := false
		for lo := 0; lo < len(c.events); lo += c.batch {
			compact, _ := batchBodies(t, c.events[lo:min(lo+c.batch, len(c.events))])
			if !checkDecode(t, compact, mm, stacks) {
				t.Fatalf("%s: batch rejected", c.name)
			}
			frames := 0
			for _, w := range stacks.walks {
				frames += len(w)
			}
			if len(stacks.walks) > trace.CacheWalks || frames > trace.CacheFrames {
				t.Fatalf("%s: cache holds %d walks and %d frames, bounds %d and %d",
					c.name, len(stacks.walks), frames, trace.CacheWalks, trace.CacheFrames)
			}
			reached = reached || c.reached(len(stacks.walks), frames)
		}
		if !reached {
			t.Errorf("%s: cache never reached the bound the input stresses", c.name)
		}
	}
}

// TestIngestConcurrentBatchesOneSession posts batches to one session from
// several clients at once: every batch is decoded through the shared
// stack cache (run under -race) and every event is consumed.
func TestIngestConcurrentBatchesOneSession(t *testing.T) {
	_, logs := newTestModel(t)
	mal := logs.Malicious
	s := newTestServer(t, Config{Parallel: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	info := createSession(t, ts, mal)
	url := fmt.Sprintf("%s/v1/sessions/%s/events", ts.URL, info.ID)

	const clients, batches, size = 4, 4, 100
	var wg sync.WaitGroup
	errs := make(chan error, clients*batches)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				lo := (c*batches + b) * size
				blob, err := json.Marshal(EventBatch{Events: EventSpecsOf(mal.Events[lo : lo+size])})
				if err != nil {
					errs <- err
					return
				}
				resp, err := ts.Client().Post(url, "application/json", bytes.NewReader(blob))
				if err != nil {
					errs <- err
					return
				}
				var res IngestResult
				err = json.NewDecoder(resp.Body).Decode(&res)
				resp.Body.Close()
				switch {
				case err != nil:
					errs <- err
				case resp.StatusCode != http.StatusOK || res.Consumed+res.Skipped != size:
					errs <- fmt.Errorf("batch %d/%d: status %d, result %+v", c, b, resp.StatusCode, res)
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	var got SessionInfo
	httpJSON(t, ts.Client(), "GET", ts.URL+"/v1/sessions/"+info.ID, nil, &got)
	if got.Consumed+got.Skipped != clients*batches*size {
		t.Errorf("session processed %d events, want %d", got.Consumed+got.Skipped, clients*batches*size)
	}
}

func FuzzDecodeEventBatch(f *testing.F) {
	mm, log := decoderFixture(f)
	for _, c := range decodeCases {
		f.Add([]byte(c.body))
	}
	for _, n := range []int{1, 3} {
		compact, indented := batchBodies(f, log.Events[100:100+n])
		f.Add(compact)
		f.Add(indented)
	}
	stacks := new(stackCache) // shared across inputs, as a session's is across batches
	f.Fuzz(func(t *testing.T, body []byte) {
		checkDecode(t, body, mm, stacks)
	})
}

// BenchmarkDecodeEventBatch measures the decoder without the HTTP stack
// on 256-event batches. bench-shaped replays a generated log as the
// repository benchmark's sessions do (a fresh session cache every 8
// batches); distinct-stacks gives every event its own stack, the
// cache's worst case.
func BenchmarkDecodeEventBatch(b *testing.B) {
	mm, log := decoderFixture(b)
	const batchEvents, sessionBatches = 256, 8
	distinct := make([]trace.Event, len(log.Events))
	for i, e := range log.Events {
		distinct[i] = e.Clone()
		if len(e.Stack) > 0 {
			distinct[i].Stack[0].Addr += uint64(i)
		}
	}
	for _, bc := range []struct {
		name   string
		events []trace.Event
	}{{"bench-shaped", log.Events}, {"distinct-stacks", distinct}} {
		b.Run(bc.name, func(b *testing.B) {
			var bodies [][]byte
			for lo := 0; lo+batchEvents <= len(bc.events); lo += batchEvents {
				compact, _ := batchBodies(b, bc.events[lo:lo+batchEvents])
				bodies = append(bodies, compact)
			}
			var stacks *stackCache
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%sessionBatches == 0 {
					stacks = new(stackCache)
				}
				if _, err := decodeEventBatch(bodies[i%len(bodies)], mm, stacks); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(b.Elapsed().Seconds()*1e6/float64(b.N*batchEvents), "us/event")
		})
	}
}

package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/gemstone"
	"repro/internal/obs"
	"repro/internal/store"
)

// frameCases are messages that must survive a round trip: every Op and
// every Status, empty and non-empty strings, extreme integers, and the
// Stats and Health answers with every part of their payload filled.
func frameCases() []any {
	var cases []any
	for op := OpLogin; op <= OpHealth; op++ {
		cases = append(cases, Request{ID: uint64(op), Op: op, Session: 1 << 40, Source: "3 + 4"})
	}
	cases = append(cases,
		Request{},
		Request{ID: math.MaxUint64, Op: Op(255), User: "DataCurator", Password: "swordfish",
			Session: math.MaxUint64, Source: strings.Repeat("x", 300), DeadlineNS: math.MaxUint64},
		Request{ID: 2, Op: OpExecute, Session: 3, Source: "'héllo' , '\x00'"},
		Request{ID: 3, Op: OpExecute, Session: 3, Source: "'\xff\xfe' , '\xc3'"},
	)
	for st := StatusError; st <= StatusDeadlineExceeded; st++ {
		cases = append(cases, Response{ID: 9, Status: st, Error: "wire: " + ErrOverloaded.Error()})
	}
	cases = append(cases,
		Response{},
		Response{ID: 1, OK: true, Result: "7"},
		Response{ID: math.MaxUint64, OK: true, Session: math.MaxUint64, Time: math.MaxUint64,
			Result: "'done'", Output: "progress"},
		Response{ID: 4, Status: StatusError, Error: "doesNotUnderstand: #boom", Output: "before"},
		Response{ID: 4, OK: true, Result: "'\xff'", Output: "é"[:1]},
		Response{ID: 5, OK: true, Stats: &obs.Snapshot{}},
		Response{ID: 6, OK: true, Stats: &obs.Snapshot{
			Counters: []obs.CounterValue{{Name: "txn.commits", Value: 3}, {Name: "wire.frames.in", Value: math.MaxUint64}},
			Gauges:   []obs.GaugeValue{{Name: "executor.sessions", Value: -2}},
			Histograms: []obs.HistogramValue{{Name: "executor.execute.ns", Count: 3, Sum: 900,
				Bounds: []uint64{100, 1000}, Buckets: []uint64{1, 2, 0}}},
			Slow: []obs.SlowEntry{{Seq: 1, DurNS: 250, Source: "<a> & \"b\""}},
		}},
		Response{ID: 7, OK: true, Health: []store.ArmHealth{}},
		Response{ID: 8, OK: true, Health: []store.ArmHealth{
			{Replica: 0, Path: "replica0.gs", State: "healthy"},
			{Replica: 1, Path: "replica1.gs", State: "degraded", LastError: "EIO", Fallbacks: 2, Repairs: 1},
		}},
	)
	return cases
}

// decodeAs reads one frame into a fresh value of v's type and returns it.
func decodeAs(v any, frame []byte) (any, int, error) {
	switch v.(type) {
	case Request:
		var m Request
		n, err := readFrame(bytes.NewReader(frame), &m)
		return m, n, err
	default:
		var m Response
		n, err := readFrame(bytes.NewReader(frame), &m)
		return m, n, err
	}
}

func TestFrameRoundTrip(t *testing.T) {
	for _, want := range frameCases() {
		var buf bytes.Buffer
		n, err := writeFrame(&buf, want)
		if err != nil {
			t.Fatalf("%+v: %v", want, err)
		}
		if n != buf.Len() {
			t.Errorf("%+v: writeFrame reported %d bytes, wrote %d", want, n, buf.Len())
		}
		got, m, err := decodeAs(want, buf.Bytes())
		if err != nil {
			t.Fatalf("%+v: decode: %v", want, err)
		}
		if m != n {
			t.Errorf("%+v: read %d bytes of %d", want, m, n)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("round trip:\n got %+v\nwant %+v", got, want)
		}
	}
}

// TestPayloadInvalidUTF8: a Stats or Health string that is not valid
// UTF-8 reaches the client with U+FFFD in place of each bad byte, and the
// frame is in the form that decoding accepts.
func TestPayloadInvalidUTF8(t *testing.T) {
	cut := strings.Repeat("x", 3) + "é"[:1]
	for _, c := range []struct{ sent, want Response }{
		{
			Response{ID: 1, OK: true, Stats: &obs.Snapshot{Slow: []obs.SlowEntry{{Seq: 1, Source: "'\xff\xfe'"}, {Seq: 2, Source: cut}}}},
			Response{ID: 1, OK: true, Stats: &obs.Snapshot{Slow: []obs.SlowEntry{{Seq: 1, Source: "'\uFFFD\uFFFD'"}, {Seq: 2, Source: "xxx\uFFFD"}}}},
		},
		{
			Response{ID: 2, OK: true, Health: []store.ArmHealth{{Path: "arm\xff.gs", LastError: cut}}},
			Response{ID: 2, OK: true, Health: []store.ArmHealth{{Path: "arm\uFFFD.gs", LastError: "xxx\uFFFD"}}},
		},
	} {
		frame, err := encodeFrame(c.sent)
		if err != nil {
			t.Fatal(err)
		}
		var got Response
		if _, err := readFrame(bytes.NewReader(frame), &got); err != nil {
			t.Fatalf("%+v: decode: %v", c.sent, err)
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("decoded %+v, want %+v", got, c.want)
		}
		if again, err := encodeFrame(got); err != nil || !bytes.Equal(again, frame) {
			t.Errorf("%+v re-encodes to %x (%v), want %x", got, again, err, frame)
		}
	}
}

// TestShortAnswerFrameSize pins the size of the commonest frame on the
// link: a one-character answer.
func TestShortAnswerFrameSize(t *testing.T) {
	frame, err := encodeFrame(Response{ID: 1000, OK: true, Result: "7"})
	if err != nil {
		t.Fatal(err)
	}
	if len(frame) > 32 {
		t.Errorf("frame for the answer 7 is %d bytes, want <= 32", len(frame))
	}
}

func TestEncodeRejects(t *testing.T) {
	for name, v := range map[string]any{
		"StatsAndHealth": Response{Stats: &obs.Snapshot{}, Health: []store.ArmHealth{}},
		"OverLimit":      Response{Result: strings.Repeat("x", maxFrame)},
		"NotAFrame":      "3 + 4",
	} {
		var buf bytes.Buffer
		if _, err := writeFrame(&buf, v); err == nil || buf.Len() != 0 {
			t.Errorf("%s: err = %v after writing %d bytes, want an error and nothing written", name, err, buf.Len())
		}
	}
}

// rawFrame is a header declaring len(body) bytes, then body.
func rawFrame(body ...byte) []byte {
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(body))), body...)
}

// readFrameEdges are generated inputs at the edges of the layout, each
// with the error it must produce. FuzzReadFrame starts from them too.
var readFrameEdges = []struct {
	name  string
	frame []byte
	resp  bool // decode as a Response, not a Request
	want  error
}{
	{"Empty", nil, false, io.EOF},
	{"ShortHeader", []byte{0, 0}, false, io.ErrUnexpectedEOF},
	{"HeaderAtLimitShortBody", binary.BigEndian.AppendUint32(nil, maxFrame), false, io.ErrUnexpectedEOF},
	{"HeaderPastLimit", binary.BigEndian.AppendUint32(nil, maxFrame+1), false, errFrameTooLarge},
	{"TruncatedBody", rawFrame(1, 2, 0, 0, 0, 0, 0, 5, 'a')[:10], false, io.ErrUnexpectedEOF},
	{"EmptyBody", rawFrame(), false, errTruncated},
	{"StringPastEnd", rawFrame(1, 2, 0, 0, 0, 0, 9, 'a'), false, nil},
	{"VarintOverflow", rawFrame(0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02), false, nil},
	{"VarintNotShortest", rawFrame(0x81, 0x00, 2, 0, 0, 0, 0, 0), false, nil},
	{"TrailingBytes", rawFrame(1, 2, 0, 0, 0, 0, 0, 0xee), false, nil},
	{"UnknownStatus", rawFrame(1, 4, 0, 0, 0, 0, 0, 0), true, nil},
	{"UnknownPayloadKind", rawFrame(1, 0x80, 0, 0, 0, 0, 0, 3), true, nil},
	{"NullStats", rawFrame(1, 0x80, 0, 0, 0, 0, 0, 1, 4, 'n', 'u', 'l', 'l'), true, nil},
	{"NullHealth", rawFrame(1, 0x80, 0, 0, 0, 0, 0, 2, 4, 'n', 'u', 'l', 'l'), true, nil},
	{"HealthNotCanonical", rawFrame(1, 0x80, 0, 0, 0, 0, 0, 2, 3, '[', ' ', ']'), true, nil},
}

func TestReadFrameRejects(t *testing.T) {
	for _, e := range readFrameEdges {
		var v any = new(Request)
		if e.resp {
			v = new(Response)
		}
		_, err := readFrame(bytes.NewReader(e.frame), v)
		if err == nil || (e.want != nil && !errors.Is(err, e.want)) {
			t.Errorf("%s: err = %v, want %v", e.name, err, e.want)
		}
	}
}

// TestReadFrameGrowsWithData: a header that promises maxFrame bytes and
// then sends ten must not cost the reader 16 MiB.
func TestReadFrameGrowsWithData(t *testing.T) {
	frame := append(binary.BigEndian.AppendUint32(nil, maxFrame), make([]byte, 10)...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := readFrame(bytes.NewReader(frame), new(Request))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("err = %v, want io.ErrUnexpectedEOF", err)
	}
	if d := after.TotalAlloc - before.TotalAlloc; d > 256<<10 {
		t.Errorf("reading 14 bytes allocated %d bytes", d)
	}
}

// FuzzReadFrame: no input panics, and every input that decodes re-encodes
// to the bytes it was read from.
func FuzzReadFrame(f *testing.F) {
	for _, e := range readFrameEdges {
		f.Add(e.frame)
	}
	for _, v := range frameCases() {
		frame, err := encodeFrame(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, v := range []any{Request{}, Response{}} {
			got, n, err := decodeAs(v, data)
			if err != nil {
				continue
			}
			again, err := encodeFrame(got)
			if err != nil {
				t.Fatalf("%+v decoded from %x does not encode: %v", got, data[:n], err)
			}
			if !bytes.Equal(again, data[:n]) {
				t.Fatalf("%x decodes to %+v, which encodes to %x", data[:n], got, again)
			}
		}
	})
}

// TestOversizedAnswerFailsOneRequest: an answer past the frame limit fails
// its own request, and another session on the same connection goes on.
func TestOversizedAnswerFailsOneRequest(t *testing.T) {
	_, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	big, err := c.Login(gemstone.SystemUser, "swordfish")
	if err != nil {
		t.Fatal(err)
	}
	other, err := c.Login(gemstone.SystemUser, "swordfish")
	if err != nil {
		t.Fatal(err)
	}
	// 2^24 characters plus the quotes of its printString: the smallest
	// doubling past the limit.
	_, _, err = big.Execute("| s | s := 'x'. 24 timesRepeat: [s := s , s]. s")
	if err == nil || !strings.Contains(err.Error(), errFrameTooLarge.Error()) {
		t.Fatalf("oversized answer: err = %v, want the frame limit", err)
	}
	if _, _, err := other.Execute("World at: #after put: 1"); err != nil {
		t.Fatalf("other session after the oversized answer: %v", err)
	}
	if _, err := other.Commit(); err != nil {
		t.Fatalf("commit after the oversized answer: %v", err)
	}
	// An oversized request fails in the client before it is sent.
	if _, _, err := other.Execute(strings.Repeat(" ", maxFrame)); !errors.Is(err, errFrameTooLarge) {
		t.Fatalf("oversized request: err = %v, want errFrameTooLarge", err)
	}
	if res, _, err := big.Execute("3 + 4"); err != nil || res != "7" {
		t.Fatalf("big session after the oversized answer: %q, %v", res, err)
	}
}

func BenchmarkFrameRoundTrip(b *testing.B) {
	req := Request{ID: 1 << 20, Op: OpExecute, Session: 0x1234_5678_9abc_def0,
		Source: "(World!hot3) at: #v"}
	resp := Response{ID: 1 << 20, OK: true, Result: "'value 17'"}
	var link bytes.Buffer
	var gotReq Request
	var gotResp Response
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := writeFrame(&link, req); err != nil {
			b.Fatal(err)
		}
		if _, err := readFrame(&link, &gotReq); err != nil {
			b.Fatal(err)
		}
		if _, err := writeFrame(&link, resp); err != nil {
			b.Fatal(err)
		}
		if _, err := readFrame(&link, &gotResp); err != nil {
			b.Fatal(err)
		}
	}
}

package ctrlplane

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files with current output")

// countingWriter records how many Write calls it receives.
type countingWriter struct {
	writes int
	buf    bytes.Buffer
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.buf.Write(p)
}

// goldenMessages is one value of each of the protocol's ten message
// types, every field nonzero where the type has one.
func goldenMessages() []Message {
	return []Message{
		Hello{DatapathID: 7, NodeName: "Zürich"},
		HelloAck{ControllerName: "fubar-controller-2", EpochMs: 10000, LeaseMs: 30000},
		Echo{Token: 0x0102030405060708},
		EchoReply{Token: 0x0102030405060708},
		FlowMod{Generation: resyncGenerationBase | 42, Epoch: 3, Rules: []Rule{
			{Agg: 0, Flows: 12, Links: []uint32{1, 2, 3}},
			{Agg: 5, Flows: 1},
		}},
		FlowModAck{Generation: resyncGenerationBase | 42, Installed: 2},
		StatsReq{Token: 99},
		StatsReply{Token: 99, Epoch: 4, DurationMs: 10000, Counters: []CounterRec{
			{Agg: 1, Flows: 8, Bytes: 1.5e9, Congested: true, Links: []uint32{0, 4}},
			{Agg: 2, Bytes: -0.25},
		}},
		ErrorMsg{Token: 9, Code: ErrCodeStale, Text: "stale controller epoch 2 < 3"},
		Bye{},
	}
}

// TestWireFramesGolden pins the wire format: each message type frames to
// exactly the bytes in testdata/frames.golden, so a switch built against
// an earlier encoder parses every frame, and the whole frame — header and
// payload — reaches the writer in a single Write call. Regenerate with
// `go test ./internal/ctrlplane -run TestWireFramesGolden -update` only
// for a deliberate wire change (which also bumps wireVersion).
func TestWireFramesGolden(t *testing.T) {
	var got strings.Builder
	for _, m := range goldenMessages() {
		var w countingWriter
		if err := WriteMessage(&w, m); err != nil {
			t.Fatalf("WriteMessage(%v): %v", m.Type(), err)
		}
		if w.writes != 1 {
			t.Errorf("%v: frame took %d Write calls, want 1", m.Type(), w.writes)
		}
		fmt.Fprintf(&got, "%s %s\n", m.Type(), hex.EncodeToString(w.buf.Bytes()))
	}
	const golden = "testdata/frames.golden"
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got.String() != string(want) {
		t.Errorf("frames diverged from %s:\n--- got ---\n%s--- want ---\n%s", golden, got.String(), want)
	}
}

// discardConn is a net.Conn that drops every write.
type discardConn struct{ net.Conn }

func (discardConn) Write(p []byte) (int, error)      { return len(p), nil }
func (discardConn) SetWriteDeadline(time.Time) error { return nil }

// ringFrames are the frames a ring epoch writes most: a stats poll, its
// reply, and a six-rule table.
func ringFrames() []Message {
	links := []uint32{1, 4}
	mod := FlowMod{Generation: 9, Epoch: 1}
	reply := StatsReply{Token: 7, Epoch: 2, DurationMs: 10000}
	for a := int32(0); a < 6; a++ {
		mod.Rules = append(mod.Rules, Rule{Agg: a, Flows: 3, Links: links})
		reply.Counters = append(reply.Counters, CounterRec{Agg: a, Flows: 3, Bytes: 1e6, Links: links})
	}
	return []Message{StatsReq{Token: 7}, reply, mod}
}

// TestWarmFrameAllocatesNothing: once its buffer has grown, a frame
// written by a seat's connection or by an agent allocates nothing.
func TestWarmFrameAllocatesNothing(t *testing.T) {
	sw := &swConn{conn: discardConn{}}
	agent := &Agent{conn: discardConn{}}
	for _, m := range ringFrames() {
		if avg := testing.AllocsPerRun(50, func() { _ = sw.send(m, time.Time{}) }); avg != 0 {
			t.Errorf("seat %v frame: %.1f allocs, want 0", m.Type(), avg)
		}
		if avg := testing.AllocsPerRun(50, func() { _ = agent.write(m) }); avg != 0 {
			t.Errorf("agent %v frame: %.1f allocs, want 0", m.Type(), avg)
		}
	}
}

// BenchmarkWriteFrame times one frame written through a seat's connection
// buffer (one op is one frame; allocs/op is 0 once the buffer is warm).
func BenchmarkWriteFrame(b *testing.B) {
	for _, m := range ringFrames() {
		b.Run(m.Type().String(), func(b *testing.B) {
			sw := &swConn{conn: discardConn{}}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := sw.send(m, time.Time{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// roundTrip encodes and re-decodes one message.
func roundTrip(t *testing.T, m Message) Message {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteMessage(&buf, m); err != nil {
		t.Fatalf("WriteMessage(%v): %v", m.Type(), err)
	}
	got, err := ReadMessage(bufio.NewReader(&buf))
	if err != nil {
		t.Fatalf("ReadMessage(%v): %v", m.Type(), err)
	}
	if buf.Len() != 0 {
		t.Fatalf("%v: %d trailing bytes after read", m.Type(), buf.Len())
	}
	return got
}

func TestRoundTripAllTypes(t *testing.T) {
	msgs := []Message{
		Hello{DatapathID: 7, NodeName: "lon"},
		HelloAck{ControllerName: "ctl", EpochMs: 10000},
		Echo{Token: 99},
		EchoReply{Token: 99},
		FlowMod{Generation: 3, Rules: []Rule{
			{Agg: 0, Flows: 12, Links: []uint32{1, 2, 3}},
			{Agg: 5, Flows: 1, Links: nil}, // self-pair
		}},
		FlowModAck{Generation: 3, Installed: 2},
		StatsReq{Token: 4},
		StatsReply{Token: 4, Epoch: 2, DurationMs: 10000, Counters: []CounterRec{
			{Agg: 1, Flows: 8, Bytes: 1.5e9, Congested: true, Links: []uint32{0, 4}},
			{Agg: 2, Flows: 0, Bytes: 0, Congested: false, Links: nil},
		}},
		ErrorMsg{Token: 9, Code: ErrCodeInstall, Text: "no such link"},
		Bye{},
	}
	for _, m := range msgs {
		got := roundTrip(t, m)
		if !reflect.DeepEqual(normalize(got), normalize(m)) {
			t.Errorf("%v round trip:\n got %#v\nwant %#v", m.Type(), got, m)
		}
	}
}

// normalize maps empty slices to nil so DeepEqual compares semantics.
func normalize(m Message) Message {
	switch v := m.(type) {
	case FlowMod:
		if len(v.Rules) == 0 {
			v.Rules = nil
		}
		for i := range v.Rules {
			if len(v.Rules[i].Links) == 0 {
				v.Rules[i].Links = nil
			}
		}
		return v
	case StatsReply:
		if len(v.Counters) == 0 {
			v.Counters = nil
		}
		for i := range v.Counters {
			if len(v.Counters[i].Links) == 0 {
				v.Counters[i].Links = nil
			}
		}
		return v
	default:
		return m
	}
}

func TestRoundTripQuickFlowMod(t *testing.T) {
	prop := func(gen uint64, aggs []int32, flows []uint32, linkSeed int64) bool {
		rng := rand.New(rand.NewSource(linkSeed))
		n := len(aggs)
		if n > 64 {
			n = 64
		}
		m := FlowMod{Generation: gen}
		for i := 0; i < n; i++ {
			r := Rule{Agg: aggs[i]}
			if i < len(flows) {
				r.Flows = flows[i]
			}
			for j := rng.Intn(5); j > 0; j-- {
				r.Links = append(r.Links, rng.Uint32()%1000)
			}
			m.Rules = append(m.Rules, r)
		}
		var buf bytes.Buffer
		if err := WriteMessage(&buf, m); err != nil {
			return false
		}
		got, err := ReadMessage(bufio.NewReader(&buf))
		if err != nil {
			return false
		}
		return reflect.DeepEqual(normalize(got), normalize(m))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestRoundTripQuickStatsReply(t *testing.T) {
	prop := func(token uint64, epoch uint32, bytesVals []float64, congested []bool) bool {
		m := StatsReply{Token: token, Epoch: epoch, DurationMs: 10000}
		n := len(bytesVals)
		if n > 64 {
			n = 64
		}
		for i := 0; i < n; i++ {
			b := bytesVals[i]
			if math.IsNaN(b) {
				b = 0 // NaN != NaN breaks DeepEqual; the wire carries it fine
			}
			c := CounterRec{Agg: int32(i), Bytes: b}
			if i < len(congested) {
				c.Congested = congested[i]
			}
			m.Counters = append(m.Counters, c)
		}
		var buf bytes.Buffer
		if err := WriteMessage(&buf, m); err != nil {
			return false
		}
		got, err := ReadMessage(bufio.NewReader(&buf))
		if err != nil {
			return false
		}
		return reflect.DeepEqual(normalize(got), normalize(m))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestReadMessageRejectsBadMagic(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMessage(&buf, Echo{Token: 1}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[0] ^= 0xFF
	if _, err := ReadMessage(bufio.NewReader(bytes.NewReader(raw))); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestReadMessageRejectsBadVersion(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMessage(&buf, Echo{Token: 1}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[2] = 99
	if _, err := ReadMessage(bufio.NewReader(bytes.NewReader(raw))); err == nil {
		t.Fatal("bad version accepted")
	}
}

func TestReadMessageRejectsUnknownType(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMessage(&buf, Echo{Token: 1}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[3] = 200
	if _, err := ReadMessage(bufio.NewReader(bytes.NewReader(raw))); err == nil {
		t.Fatal("unknown type accepted")
	}
}

func TestReadMessageRejectsOversizedPayload(t *testing.T) {
	hdr := make([]byte, 0, 8)
	hdr = binary.BigEndian.AppendUint16(hdr, wireMagic)
	hdr = append(hdr, wireVersion, byte(MsgEchoReq))
	hdr = binary.BigEndian.AppendUint32(hdr, maxPayload+1)
	if _, err := ReadMessage(bufio.NewReader(bytes.NewReader(hdr))); err == nil {
		t.Fatal("oversized payload accepted")
	}
}

func TestReadMessageRejectsTruncatedPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMessage(&buf, Hello{DatapathID: 1, NodeName: "x"}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()[:buf.Len()-1]
	_, err := ReadMessage(bufio.NewReader(bytes.NewReader(raw)))
	if err == nil {
		t.Fatal("truncated payload accepted")
	}
}

// TestReadMessageLargePayload reads a frame longer than payloadStep, which
// grows as its bytes arrive instead of being allocated whole up front: it
// round-trips, and cut one byte short it fails as a truncated payload.
func TestReadMessageLargePayload(t *testing.T) {
	mod := FlowMod{Generation: 1}
	for a := int32(0); a < 4000; a++ {
		mod.Rules = append(mod.Rules, Rule{Agg: a, Flows: uint32(a%40 + 1), Links: []uint32{uint32(a % 56), uint32(a+7) % 56}})
	}
	var buf bytes.Buffer
	if err := WriteMessage(&buf, mod); err != nil {
		t.Fatal(err)
	}
	if n := buf.Len() - frameHeaderLen; n <= payloadStep {
		t.Fatalf("payload %d bytes, want > payloadStep (%d)", n, payloadStep)
	}
	raw := buf.Bytes()
	got, err := ReadMessage(bufio.NewReader(bytes.NewReader(raw)))
	if err != nil || !reflect.DeepEqual(normalize(got), normalize(mod)) {
		t.Fatalf("large FlowMod round trip: %v", err)
	}
	if _, err := ReadMessage(bufio.NewReader(bytes.NewReader(raw[:len(raw)-1]))); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("large payload one byte short: got %v, want io.ErrUnexpectedEOF", err)
	}
}

// TestReadMessageRogueLengthAllocatesLittle reads a header that claims
// maxPayload bytes and is followed by only a few: the read fails as a
// truncated payload having allocated for the bytes that came, not for the
// 16 MiB the header claimed.
func TestReadMessageRogueLengthAllocatesLittle(t *testing.T) {
	frame := binary.BigEndian.AppendUint32([]byte{0xFB, 0xAE, wireVersion, byte(MsgFlowMod)}, maxPayload)
	frame = append(frame, make([]byte, 100)...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadMessage(bufio.NewReader(bytes.NewReader(frame)))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("header claiming %d bytes, 100 sent: got %v, want io.ErrUnexpectedEOF", maxPayload, err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("header claiming %d bytes cost %d bytes allocated, want < 1 MiB", maxPayload, got)
	}
}

func TestReadMessageRejectsTrailingGarbage(t *testing.T) {
	// Craft an Echo with an extra byte in the payload.
	payload := binary.BigEndian.AppendUint64(nil, 5)
	payload = append(payload, 0xAA)
	frame := make([]byte, 0, 8+len(payload))
	frame = binary.BigEndian.AppendUint16(frame, wireMagic)
	frame = append(frame, wireVersion, byte(MsgEchoReq))
	frame = binary.BigEndian.AppendUint32(frame, uint32(len(payload)))
	frame = append(frame, payload...)
	if _, err := ReadMessage(bufio.NewReader(bytes.NewReader(frame))); err == nil {
		t.Fatal("trailing payload bytes accepted")
	}
}

func TestReadMessageEOFOnEmpty(t *testing.T) {
	_, err := ReadMessage(bufio.NewReader(bytes.NewReader(nil)))
	if err != io.EOF {
		t.Fatalf("empty stream: got %v, want io.EOF", err)
	}
}

func TestWriteMessageRejectsHugeString(t *testing.T) {
	// A string longer than maxString encodes fine (length fits uint16 up
	// to 65535) but must be rejected on decode.
	name := strings.Repeat("x", maxString+1)
	var buf bytes.Buffer
	if err := WriteMessage(&buf, Hello{DatapathID: 1, NodeName: name}); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadMessage(bufio.NewReader(&buf)); err == nil {
		t.Fatal("oversized string accepted on decode")
	}
}

func TestFuzzishRandomBytesDoNotPanic(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 3000; trial++ {
		n := rng.Intn(64)
		raw := make([]byte, n)
		rng.Read(raw)
		// Half the trials get a valid header to push fuzzing into the
		// payload parsers.
		if trial%2 == 0 && n >= 8 {
			binary.BigEndian.PutUint16(raw, wireMagic)
			raw[2] = wireVersion
			raw[3] = byte(1 + rng.Intn(10))
			binary.BigEndian.PutUint32(raw[4:], uint32(n-8))
		}
		_, _ = ReadMessage(bufio.NewReader(bytes.NewReader(raw))) // must not panic
	}
}

func TestMsgTypeString(t *testing.T) {
	for typ, want := range map[MsgType]string{
		MsgHello:      "Hello",
		MsgHelloAck:   "HelloAck",
		MsgEchoReq:    "EchoReq",
		MsgEchoReply:  "EchoReply",
		MsgFlowMod:    "FlowMod",
		MsgFlowModAck: "FlowModAck",
		MsgStatsReq:   "StatsReq",
		MsgStatsReply: "StatsReply",
		MsgError:      "Error",
		MsgBye:        "Bye",
		MsgType(77):   "MsgType(77)",
	} {
		if got := typ.String(); got != want {
			t.Errorf("MsgType(%d).String() = %q, want %q", typ, got, want)
		}
	}
}

func TestErrorMsgIsError(t *testing.T) {
	var err error = ErrorMsg{Code: ErrCodeInstall, Text: "boom"}
	if !strings.Contains(err.Error(), "boom") {
		t.Fatalf("ErrorMsg.Error() = %q", err.Error())
	}
}

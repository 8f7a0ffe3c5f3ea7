package ctrlplane

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// slowDatapath blocks ReadCounters — or InstallRules, when onInstall —
// until released, to hold a stats or install request in flight; every
// call then goes on to the wrapped Datapath. Each held call first offers
// the goroutine count on entered, so a test knows when a request is being
// held — and how many goroutines the process runs while the controller
// waits on it.
type slowDatapath struct {
	Datapath
	onInstall bool
	release   chan struct{}
	once      sync.Once
	entered   chan int
}

func newSlowDatapath(dp Datapath, onInstall bool) *slowDatapath {
	return &slowDatapath{Datapath: dp, onInstall: onInstall, release: make(chan struct{}), entered: make(chan int, 1)}
}

func (d *slowDatapath) hold() {
	select {
	case d.entered <- runtime.NumGoroutine():
	default:
	}
	<-d.release
}

func (d *slowDatapath) InstallRules(generation uint64, rules []Rule) error {
	if d.onInstall {
		d.hold()
	}
	return d.Datapath.InstallRules(generation, rules)
}

func (d *slowDatapath) ReadCounters(batch *CounterBatch) error {
	if !d.onInstall {
		d.hold()
	}
	return d.Datapath.ReadCounters(batch)
}

func (d *slowDatapath) Release() { d.once.Do(func() { close(d.release) }) }

// awaitDeregistered waits for the seat to drop every switch.
func awaitDeregistered(t *testing.T, seat *Controller) {
	t.Helper()
	waitCond(t, "dead switch to deregister", func() bool { return seat.SwitchCount() == 0 })
}

func TestAgentDeathFailsInFlightRequests(t *testing.T) {
	rs, seat := oneSeat(t, ControllerConfig{RequestTimeout: 10 * time.Second})
	dp := newSlowDatapath(&recDatapath{}, false)
	defer dp.Release()
	agent, _ := bareAgent(t, rs.DialOrder(3)[0], 3, "victim", dp)
	waitSwitches(t, rs, 1)

	// Put a stats request on the wire that will hang in the datapath,
	// then kill the agent: the pending request must fail promptly with a
	// connection error, not dangle until the timeout.
	if _, err := seat.lookup(3); err != nil {
		t.Fatalf("lookup: %v", err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := seatRPC(seat, 3, 1, StatsReq{Token: 1}, MsgStatsReply)
		done <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the request hit the wire
	agent.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("in-flight request survived agent death")
		}
		if !strings.Contains(err.Error(), "connection lost") {
			t.Fatalf("want connection-lost error, got: %v", err)
		}
		if !errors.Is(err, ErrSwitchDead) {
			t.Fatalf("error not errors.Is(ErrSwitchDead): %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("pending request not failed after agent death")
	}
	awaitDeregistered(t, seat)
}

func TestRequestTimeout(t *testing.T) {
	rs, _ := oneSeat(t, ControllerConfig{RequestTimeout: 200 * time.Millisecond})
	dp := newSlowDatapath(&recDatapath{}, false)
	defer dp.Release()
	bareAgent(t, rs.DialOrder(1)[0], 1, "slow", dp)
	waitSwitches(t, rs, 1)
	start := time.Now()
	_, err := rs.CollectStats(context.Background())
	if err == nil {
		t.Fatal("hung datapath did not time out")
	}
	// Every attempt times out: 3 × 200ms plus 25ms + 50ms of backoff.
	if el := time.Since(start); el > 3*time.Second {
		t.Fatalf("timeout took %v, want ~700ms", el)
	}
	if !strings.Contains(err.Error(), "timed out") {
		t.Fatalf("want timeout error, got: %v", err)
	}
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("error not errors.Is(ErrTimeout): %v", err)
	}
	if got := rs.Stats().RPCRetries; got != retryAttempts-1 {
		t.Fatalf("RPCRetries = %d, want %d", got, retryAttempts-1)
	}
}

func TestTornFrameMidInstallMarksSwitchDead(t *testing.T) {
	// A raw client registers as a switch, then answers an install with a
	// truncated frame and slams the connection. The controller must mark
	// the switch dead, fail the pending install fast with ErrSwitchDead,
	// deregister the switch, and leave no goroutine behind (Close's
	// WaitGroup drain hangs this test if one leaks).
	rs, seat := oneSeat(t, ControllerConfig{RequestTimeout: 10 * time.Second})

	conn, err := net.Dial("tcp", rs.DialOrder(7)[0])
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	if err := WriteMessage(conn, Hello{DatapathID: 7, NodeName: "torn"}); err != nil {
		t.Fatalf("hello: %v", err)
	}
	if _, err := ReadMessage(br); err != nil {
		t.Fatalf("hello ack: %v", err)
	}
	waitSwitches(t, rs, 1)

	if _, err := seat.lookup(7); err != nil {
		t.Fatalf("lookup: %v", err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := seatRPC(seat, 7, 99, FlowMod{Generation: 99}, MsgFlowModAck)
		done <- err
	}()

	// Read the FlowMod off the wire, then reply with the first half of a
	// valid FlowModAck frame and cut the connection.
	if _, err := ReadMessage(br); err != nil {
		t.Fatalf("read FlowMod: %v", err)
	}
	var fullBuf strings.Builder
	if err := WriteMessage(&fullBuf, FlowModAck{Generation: 99, Installed: 1}); err != nil {
		t.Fatalf("frame ack: %v", err)
	}
	full := []byte(fullBuf.String())
	if _, err := conn.Write(full[:len(full)/2]); err != nil {
		t.Fatalf("write torn frame: %v", err)
	}
	conn.Close()

	select {
	case err := <-done:
		if err == nil {
			t.Fatal("install survived a torn reply")
		}
		if !errors.Is(err, ErrSwitchDead) {
			t.Fatalf("want ErrSwitchDead, got: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("pending install not failed after torn frame")
	}
	awaitDeregistered(t, seat)
	// Close drains the connection WaitGroup: a leaked read/handle
	// goroutine turns this into the test's own timeout failure.
	if err := seat.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestWaitForSwitchesCtxCancel(t *testing.T) {
	rs, _ := oneSeat(t, ControllerConfig{})
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := rs.WaitForSwitchesCtx(ctx, 1)
	if err == nil {
		t.Fatal("WaitForSwitchesCtx returned without switches")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got: %v", err)
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("cancellation took %v", el)
	}
}

func TestSentinelClassification(t *testing.T) {
	_, seat := oneSeat(t, ControllerConfig{})
	if _, err := seat.lookup(42); !errors.Is(err, ErrNoSuchSwitch) {
		t.Fatalf("unknown switch: want ErrNoSuchSwitch, got %v", err)
	}
	seat.Close()
	if _, err := seat.lookup(42); !errors.Is(err, ErrClosed) {
		t.Fatalf("closed controller: want ErrClosed, got %v", err)
	}
	if !retryable(ErrSwitchDead) || !retryable(ErrTimeout) {
		t.Fatal("transient sentinels not classified retryable")
	}
	if retryable(ErrClosed) || retryable(ErrNoSuchSwitch) {
		t.Fatal("fatal sentinels classified retryable")
	}
}

func TestRogueClientGarbageRejected(t *testing.T) {
	rs, _ := oneSeat(t, ControllerConfig{HandshakeTimeout: 500 * time.Millisecond})

	// Raw TCP client spews garbage instead of a Hello.
	conn, err := net.Dial("tcp", rs.DialOrder(0)[0])
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET / HTTP/1.1\r\nHost: nope\r\n\r\n")); err != nil {
		t.Fatalf("write: %v", err)
	}
	// The controller must drop the connection without registering it.
	buf := make([]byte, 1)
	_ = conn.SetReadDeadline(time.Now().Add(3 * time.Second))
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("controller replied to garbage")
	}
	if n := rs.SwitchCount(); n != 0 {
		t.Fatalf("%d switches registered from garbage", n)
	}
}

func TestRogueClientHalfFrame(t *testing.T) {
	rs, _ := oneSeat(t, ControllerConfig{HandshakeTimeout: 300 * time.Millisecond})
	conn, err := net.Dial("tcp", rs.DialOrder(0)[0])
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	// Valid header claiming a payload that never arrives: the handshake
	// deadline must reap the connection.
	hdr := []byte{0xFB, 0xAE, wireVersion, byte(MsgHello), 0, 0, 1, 0}
	if _, err := conn.Write(hdr); err != nil {
		t.Fatalf("write: %v", err)
	}
	buf := make([]byte, 1)
	_ = conn.SetReadDeadline(time.Now().Add(3 * time.Second))
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("controller replied to a half frame")
	}
	if n := rs.SwitchCount(); n != 0 {
		t.Fatalf("%d switches registered from half frame", n)
	}
}

func TestAgentReconnectAfterDrop(t *testing.T) {
	rs, seat := oneSeat(t, ControllerConfig{})
	addr := rs.DialOrder(5)[0]

	first, _ := bareAgent(t, addr, 5, "pop5", nopDatapath{})
	waitSwitches(t, rs, 1)
	first.Close()
	awaitDeregistered(t, seat)

	// Same datapath ID reconnects and is fully operational.
	bareAgent(t, addr, 5, "pop5", nopDatapath{})
	waitSwitches(t, rs, 1)
	echo(t, seat, 5)
}

func TestControllerCloseUnblocksAgents(t *testing.T) {
	rs, seat := oneSeat(t, ControllerConfig{})
	_, done := bareAgent(t, rs.DialOrder(0)[0], 0, "n0", nopDatapath{})
	waitSwitches(t, rs, 1)
	if err := seat.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	select {
	case err := <-done:
		// Bye or EOF are both orderly.
		if err != nil {
			t.Fatalf("agent serve after controller close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("agent did not unblock after controller close")
	}
}

func TestEchoFromAgentSide(t *testing.T) {
	// The controller answers agent-initiated echoes (keepalives).
	rs, _ := oneSeat(t, ControllerConfig{})

	conn, err := net.Dial("tcp", rs.DialOrder(9)[0])
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	if err := WriteMessage(conn, Hello{DatapathID: 9, NodeName: "keepalive"}); err != nil {
		t.Fatalf("hello: %v", err)
	}
	if _, err := ReadMessage(br); err != nil {
		t.Fatalf("hello ack: %v", err)
	}
	if err := WriteMessage(conn, Echo{Token: 1234}); err != nil {
		t.Fatalf("echo: %v", err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(3 * time.Second))
	msg, err := ReadMessage(br)
	if err != nil {
		t.Fatalf("echo reply: %v", err)
	}
	reply, ok := msg.(EchoReply)
	if !ok || reply.Token != 1234 {
		t.Fatalf("want EchoReply{1234}, got %#v", msg)
	}
}

// TestRogueHeaderCostsNoMemory sends frame headers that claim maxPayload
// bytes and then no payload: eight on fresh connections, where the
// handshake refuses any first frame longer than the largest valid Hello,
// and eight on registered switches' connections, where the read loop reads
// a payload as it arrives. The controller must drop every connection — a
// rogue Hello at once, not at the handshake deadline — having allocated
// well under 1 MiB for all sixteen; a buffer sized by the header would
// cost 16 MiB each.
func TestRogueHeaderCostsNoMemory(t *testing.T) {
	rs, seat := oneSeat(t, ControllerConfig{HandshakeTimeout: 10 * time.Second})
	header := func(t MsgType) []byte {
		return binary.BigEndian.AppendUint32([]byte{0xFB, 0xAE, wireVersion, byte(t)}, maxPayload)
	}
	dial := func() net.Conn {
		conn, err := net.Dial("tcp", rs.DialOrder(0)[0])
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		t.Cleanup(func() { conn.Close() })
		return conn
	}
	const clients = 8
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)

	for i := 0; i < clients; i++ {
		conn := dial()
		if _, err := conn.Write(header(MsgHello)); err != nil {
			t.Fatalf("write: %v", err)
		}
		_ = conn.SetReadDeadline(time.Now().Add(time.Second))
		var ne net.Error
		if _, err := conn.Read(make([]byte, 1)); err == nil {
			t.Fatal("controller answered a rogue Hello header")
		} else if errors.As(err, &ne) && ne.Timeout() {
			t.Errorf("controller still holds a connection whose first frame claims %d bytes", maxPayload)
		}
	}
	for i := 0; i < clients; i++ {
		conn := dial()
		if err := WriteMessage(conn, Hello{DatapathID: uint32(i), NodeName: "rogue"}); err != nil {
			t.Fatalf("hello: %v", err)
		}
		if _, err := ReadMessage(bufio.NewReader(conn)); err != nil {
			t.Fatalf("hello ack: %v", err)
		}
		waitSwitches(t, rs, 1)
		if _, err := conn.Write(header(MsgStatsReply)); err != nil {
			t.Fatalf("write: %v", err)
		}
		conn.Close()
		awaitDeregistered(t, seat)
	}

	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d rogue headers: %d bytes allocated", 2*clients, got)
	if got >= 1<<20 {
		t.Fatalf("%d rogue headers cost the controller %d bytes, want < 1 MiB", 2*clients, got)
	}
}

// TestHandshakeHelloLimitIsTight pins maxHello to the Hello encoding: a
// Hello with a maxString-byte name is exactly maxHello bytes and registers,
// and a first frame one byte longer is dropped at once.
func TestHandshakeHelloLimitIsTight(t *testing.T) {
	rs, _ := oneSeat(t, ControllerConfig{HandshakeTimeout: 10 * time.Second})
	longest := Hello{DatapathID: 9, NodeName: strings.Repeat("n", maxString)}
	if n := len(longest.appendPayload(nil)); n != maxHello {
		t.Fatalf("longest Hello payload %d bytes, want maxHello (%d)", n, maxHello)
	}
	dial := func() net.Conn {
		conn, err := net.Dial("tcp", rs.DialOrder(0)[0])
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		t.Cleanup(func() { conn.Close() })
		_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
		return conn
	}

	conn := dial()
	if err := WriteMessage(conn, longest); err != nil {
		t.Fatalf("hello: %v", err)
	}
	if msg, err := ReadMessage(bufio.NewReader(conn)); err != nil {
		t.Fatalf("longest Hello refused: %v", err)
	} else if _, ok := msg.(HelloAck); !ok {
		t.Fatalf("longest Hello answered with %T, want HelloAck", msg)
	}
	waitSwitches(t, rs, 1)

	frame := binary.BigEndian.AppendUint32([]byte{0xFB, 0xAE, wireVersion, byte(MsgHello)}, maxHello+1)
	frame = append(frame, make([]byte, maxHello+1)...)
	conn = dial()
	if _, err := conn.Write(frame); err != nil {
		t.Fatalf("write: %v", err)
	}
	var ne net.Error
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("controller answered a first frame one byte over maxHello")
	} else if errors.As(err, &ne) && ne.Timeout() {
		t.Fatal("controller still holds a connection whose first frame is one byte over maxHello")
	}
}

package ctrlplane

import (
	"bufio"
	"context"
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

// slowDatapath blocks ReadCounters until released, to hold a stats
// request in flight.
type slowDatapath struct {
	release chan struct{}
	once    sync.Once
}

func newSlowDatapath() *slowDatapath { return &slowDatapath{release: make(chan struct{})} }

func (d *slowDatapath) InstallRules(uint64, []Rule) error { return nil }
func (d *slowDatapath) ReadCounters() (CounterBatch, error) {
	<-d.release
	return CounterBatch{Epoch: 1, Duration: time.Second}, nil
}
func (d *slowDatapath) Release() { d.once.Do(func() { close(d.release) }) }

// awaitDeregistered waits for the seat to drop every switch.
func awaitDeregistered(t *testing.T, seat *Controller) {
	t.Helper()
	waitCond(t, "dead switch to deregister", func() bool { return seat.SwitchCount() == 0 })
}

func TestAgentDeathFailsInFlightRequests(t *testing.T) {
	rs, seat := oneSeat(t, ControllerConfig{RequestTimeout: 10 * time.Second})
	dp := newSlowDatapath()
	defer dp.Release()
	agent, _ := bareAgent(t, rs.DialOrder(3)[0], 3, "victim", dp)
	waitSwitches(t, rs, 1)

	// Put a stats request on the wire that will hang in the datapath,
	// then kill the agent: the pending request must fail promptly with a
	// connection error, not dangle until the timeout.
	sw, err := seat.lookup(3)
	if err != nil {
		t.Fatalf("lookup: %v", err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := seat.request(context.Background(), sw, 1, StatsReq{Token: 1})
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
	dp := newSlowDatapath()
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

	sw, err := seat.lookup(7)
	if err != nil {
		t.Fatalf("lookup: %v", err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := seat.request(context.Background(), sw, 99, FlowMod{Generation: 99})
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
	if retryable(ErrClosed) || retryable(ErrNoSuchSwitch) || retryable(ErrStaleEpoch) {
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

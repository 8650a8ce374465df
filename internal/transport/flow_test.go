package transport

// Regression and behaviour tests for the UDP window's flow control:
// the adaptive RTO + SACK machinery, plus the three audited bugs —
// unbounded out-of-order buffering, inconsistent receive byte
// accounting, and the busy-spinning read loop.

import (
	"bytes"
	"net"
	"testing"
	"time"

	"repro/internal/platform"
	"repro/internal/stats"
	"repro/internal/wire"
)

// newUDPPair builds two connected UDP endpoints with the given options
// applied to both (counters are per-endpoint).
func newUDPPair(t *testing.T, o UDPOptions) (*UDPEndpoint, *UDPEndpoint, [2]*stats.Counters) {
	t.Helper()
	addrs, err := FreeLocalAddrs(2)
	if err != nil {
		t.Fatal(err)
	}
	var counters [2]*stats.Counters
	eps := make([]*UDPEndpoint, 2)
	for i := range eps {
		counters[i] = &stats.Counters{}
		oi := o
		oi.Counters = counters[i]
		if o.Chaos != nil {
			cc := *o.Chaos
			oi.Chaos = &cc
		}
		ep, err := NewUDPEndpointOptions(i, addrs, oi)
		if err != nil {
			t.Fatal(err)
		}
		eps[i] = ep
		t.Cleanup(func() { ep.Close() })
	}
	return eps[0], eps[1], counters
}

// TestUDPOOOBufferBounded injects data frames far beyond the receive
// window, as a hostile or wildly reordering peer could, and checks the
// out-of-order buffer never grows past the window. Regression for
// handleData accepting any seq >= expected into rs.ooo.
func TestUDPOOOBufferBounded(t *testing.T) {
	e0, _, _ := newUDPPair(t, UDPOptions{})
	win := int(e0.window)
	// seq 0 is never delivered, so nothing drains and every accepted
	// fragment stays buffered.
	for seq := uint32(1); seq < uint32(win*10); seq++ {
		e0.handleData(1, seq, []byte{byte(seq)})
	}
	rs := e0.recvsts[1]
	rs.mu.Lock()
	got, hw := len(rs.ooo), rs.oooHW
	rs.mu.Unlock()
	if got > win || hw > win {
		t.Fatalf("ooo buffer grew to %d (high water %d), want <= window %d", got, hw, win)
	}
	if got != win-1 {
		// seqs 1..win-1 are inside the window and must still buffer.
		t.Errorf("in-window fragments buffered = %d, want %d", got, win-1)
	}
	// The channel still works: deliver the missing prefix and the rest
	// of a real message stream.
	m := wire.Message{Type: wire.TAck, From: 1, To: 0, Payload: []byte("ok")}
	frags := wire.Fragment(wire.Encode(m), 7)
	rs.mu.Lock()
	rs.ooo = make(map[uint32][]byte)
	rs.expected = 0
	rs.mu.Unlock()
	for i, f := range frags {
		e0.handleData(1, uint32(i), f)
	}
	got2, ok := recvTimeout(t, e0, 5*time.Second)
	if !ok || string(got2.Payload) != "ok" {
		t.Fatalf("channel dead after out-of-window flood: ok=%v %+v", ok, got2)
	}
}

// TestUDPReadLoopBacksOffOnPersistentError forces every socket read to
// fail (a read deadline in the past) and checks the read loop backs
// off instead of busy-spinning at 100% CPU, then exits cleanly on
// Close. Regression for the unconditional `continue` on read errors.
func TestUDPReadLoopBacksOffOnPersistentError(t *testing.T) {
	addrs, err := FreeLocalAddrs(1)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewUDPEndpoint(0, addrs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.conn.SetReadDeadline(time.Now().Add(-time.Second)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(500 * time.Millisecond)
	errs := e.readErrs.Load()
	if errs == 0 {
		t.Fatal("read loop never observed the failing socket")
	}
	// A busy-spinning loop racks up millions of failures in 500ms; the
	// exponential backoff caps it at a few dozen.
	if errs > 100 {
		t.Fatalf("read loop spun %d times in 500ms; backoff is not working", errs)
	}
	e.Close()
	select {
	case <-e.readDone:
	case <-time.After(5 * time.Second):
		t.Fatal("read loop did not exit after Close")
	}
}

// TestReceiveByteAccountingConsistent pins the single definition of
// per-message byte accounting — the encoded wire length — across all
// three transports and both loopback and socket paths: after a mixed
// workload drains, every receiver's BytesRecv equals the sender's
// BytesSent. Regression for the UDP/TCP socket paths counting payload
// length while the loopback and mem paths counted encoded length.
func TestReceiveByteAccountingConsistent(t *testing.T) {
	payloads := [][]byte{nil, []byte("x"), bytes.Repeat([]byte{0xEE}, 70<<10), []byte("tail")}
	var wantBytes int64
	for _, p := range payloads {
		wantBytes += int64(wire.EncodedLen(wire.Message{Payload: p}))
	}
	run := func(t *testing.T, eps []Endpoint, counters [2]*stats.Counters) {
		t.Helper()
		go func() {
			for _, p := range payloads {
				if err := eps[0].Send(wire.Message{Type: wire.TJDiff, To: 1, Payload: p}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		for range payloads {
			if _, ok := recvTimeout(t, eps[1], 30*time.Second); !ok {
				t.Fatal("message lost")
			}
		}
		sent, recv := counters[0].BytesSent.Load(), counters[1].BytesRecv.Load()
		if sent != wantBytes || recv != wantBytes {
			t.Fatalf("BytesSent=%d BytesRecv=%d, want both %d (encoded length)", sent, recv, wantBytes)
		}
		// The loopback path must use the same definition.
		lb := wire.Message{Type: wire.TAck, To: 0, Payload: []byte("self")}
		before := counters[0].BytesRecv.Load()
		if err := eps[0].Send(lb); err != nil {
			t.Fatal(err)
		}
		if _, ok := recvTimeout(t, eps[0], 30*time.Second); !ok {
			t.Fatal("self-send lost")
		}
		if got := counters[0].BytesRecv.Load() - before; got != int64(wire.EncodedLen(lb)) {
			t.Fatalf("loopback BytesRecv delta = %d, want %d", got, wire.EncodedLen(lb))
		}
	}
	t.Run("udp", func(t *testing.T) {
		e0, e1, counters := newUDPPair(t, UDPOptions{})
		run(t, []Endpoint{e0, e1}, counters)
	})
	t.Run("tcp", func(t *testing.T) {
		addrs, err := FreeLocalTCPAddrs(2)
		if err != nil {
			t.Fatal(err)
		}
		var counters [2]*stats.Counters
		eps := make([]Endpoint, 2)
		for i := range eps {
			counters[i] = &stats.Counters{}
			ep, err := NewTCPEndpointOptions(i, addrs, TCPOptions{Counters: counters[i]})
			if err != nil {
				t.Fatal(err)
			}
			eps[i] = ep
			t.Cleanup(func() { ep.Close() })
		}
		run(t, eps, counters)
	})
	t.Run("mem", func(t *testing.T) {
		counters := [2]*stats.Counters{{}, {}}
		c := NewMemCluster(2, platform.Test(), counters[:], nil)
		t.Cleanup(c.Close)
		run(t, c.Endpoints(), counters)
	})
}

// TestUDPSACKAndFastRetransmit drives handleAck directly: selective
// acks must release exactly the named fragments from the in-flight
// set, and the third duplicate cumulative ack must fast-retransmit the
// first hole exactly once.
func TestUDPSACKAndFastRetransmit(t *testing.T) {
	e0, _, counters := newUDPSinkEndpoint(t)

	// Six single-fragment messages -> seqs 0..5 in flight to node 1.
	for i := 0; i < 6; i++ {
		if err := e0.Send(wire.Message{Type: wire.TJDiff, To: 1, Payload: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	ss := e0.sendsts[1]

	// Cumulative ack to 3, SACK for seq 5 (bit i covers ack+1+i, so
	// seq 5 is bit 1): 0,1,2 acked, 5 selectively acked, 3,4 remain.
	e0.handleAck(1, 3, 1<<1)
	ss.mu.Lock()
	ackedTo, n34 := ss.ackedTo, len(ss.inFly)
	_, has3 := ss.inFly[3]
	_, has4 := ss.inFly[4]
	_, has5 := ss.inFly[5]
	ss.mu.Unlock()
	if ackedTo != 3 || n34 != 2 || !has3 || !has4 || has5 {
		t.Fatalf("after ack=3 sack={5}: ackedTo=%d inFly=%d has3=%v has4=%v has5=%v",
			ackedTo, n34, has3, has4, has5)
	}
	if s := counters.RTTSamples.Load(); s == 0 {
		t.Error("cumulative+selective acks produced no RTT samples")
	}

	// Three duplicate cumulative acks at 3 -> fast retransmit of seq 3,
	// exactly once (the fourth duplicate must not re-fire).
	for i := 0; i < 4; i++ {
		e0.handleAck(1, 3, 0)
	}
	if fr := counters.FastRetrans.Load(); fr != 1 {
		t.Fatalf("FastRetrans = %d, want exactly 1", fr)
	}
	if rt := counters.FragsRetrans.Load(); rt != 1 {
		t.Fatalf("FragsRetrans = %d, want 1 (the fast retransmit)", rt)
	}
	ss.mu.Lock()
	retx := ss.inFly[3] != nil && ss.inFly[3].retx
	ss.mu.Unlock()
	if !retx {
		t.Error("fast-retransmitted frame not marked retx (Karn's rule would sample an ambiguous ack)")
	}
}

// TestUDPAdaptiveRTOAdaptsToCleanLink checks that on a loopback link
// the measured RTO collapses from the 50ms initial value to the
// (clamped) few-millisecond floor, so clean-link retransmissions no
// longer stall for a fixed 50ms.
func TestUDPAdaptiveRTOAdaptsToCleanLink(t *testing.T) {
	e0, e1, counters := newUDPPair(t, UDPOptions{})
	go func() {
		for i := 0; i < 100; i++ {
			if err := e0.Send(wire.Message{Type: wire.TJDiff, To: 1, Payload: []byte{byte(i)}}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 100; i++ {
		if _, ok := recvTimeout(t, e1, 30*time.Second); !ok {
			t.Fatal("stream died")
		}
	}
	ss := e0.sendsts[1]
	ss.mu.Lock()
	srtt, rto := ss.srtt, ss.rto
	ss.mu.Unlock()
	if srtt <= 0 {
		t.Fatal("no SRTT was ever measured on a busy clean link")
	}
	if rto <= 0 || rto >= defaultRTO {
		t.Fatalf("adaptive RTO = %v, want measured value below the %v initial", rto, defaultRTO)
	}
	if s := counters[0].RTTSamples.Load(); s == 0 {
		t.Error("RTTSamples counter never advanced")
	}
	t.Logf("clean link: srtt=%v rto=%v samples=%d", srtt, rto, counters[0].RTTSamples.Load())
}

// TestUDPFlowCumulativeStillConforms keeps the legacy baseline mode
// (fixed RTO, cumulative-only, go-back-N) honest: it must still
// deliver a windowed multi-fragment transfer and an ordered stream,
// since lotsbench's flowctl experiment measures against it.
func TestUDPFlowCumulativeStillConforms(t *testing.T) {
	cc := Chaos{Seed: 5, Drop: 0.10, Reorder: 0.10, DelayMax: 300 * time.Microsecond}
	e0, e1, counters := newUDPPair(t, UDPOptions{Chaos: &cc, RTO: 10 * time.Millisecond, Flow: FlowCumulative})
	payload := make([]byte, 1<<20)
	for i := range payload {
		payload[i] = byte(i * 13)
	}
	go func() {
		if err := e0.Send(wire.Message{Type: wire.TObjFetchReply, To: 1, Payload: payload}); err != nil {
			t.Error(err)
		}
		for i := 0; i < 50; i++ {
			var w wire.Buffer
			w.U32(uint32(i))
			if err := e0.Send(wire.Message{Type: wire.TJDiff, To: 1, Payload: w.Bytes()}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	m, ok := recvTimeout(t, e1, 120*time.Second)
	if !ok || !bytes.Equal(m.Payload, payload) {
		t.Fatal("large transfer corrupted or lost in cumulative mode")
	}
	for want := uint32(0); want < 50; want++ {
		m, ok := recvTimeout(t, e1, 120*time.Second)
		if !ok {
			t.Fatalf("stream died at %d/50", want)
		}
		if got := wire.NewReader(m.Payload).U32(); got != want {
			t.Fatalf("got %d, want %d in cumulative mode", got, want)
		}
	}
	if counters[0].RTTSamples.Load() != 0 || counters[0].FastRetrans.Load() != 0 {
		t.Error("cumulative mode must not run the adaptive/SACK machinery")
	}
	t.Logf("cumulative baseline under 10%% drop: retrans=%d", counters[0].FragsRetrans.Load())
}

// TestUDPConfigurableWindow runs a multi-fragment transfer through
// deliberately tiny windows; correctness must not depend on the
// default window size.
func TestUDPConfigurableWindow(t *testing.T) {
	for _, win := range []int{1, 2, 5} {
		e0, e1, _ := newUDPPair(t, UDPOptions{Window: win})
		if e0.window != uint32(win) {
			t.Fatalf("window = %d, want %d", e0.window, win)
		}
		payload := make([]byte, 600<<10) // ~10 fragments
		for i := range payload {
			payload[i] = byte(i * 31)
		}
		go func() {
			if err := e0.Send(wire.Message{Type: wire.TObjFetchReply, To: 1, Payload: payload}); err != nil {
				t.Error(err)
			}
		}()
		m, ok := recvTimeout(t, e1, 60*time.Second)
		if !ok || !bytes.Equal(m.Payload, payload) {
			t.Fatalf("window=%d: transfer corrupted or lost", win)
		}
	}
}

// TestUDPExtremeReorderSoakBoundedOOO is the chaos soak: under extreme
// seeded reordering (plus drop and duplication) a sustained workload
// must deliver exactly once, in order, while the receiver's
// out-of-order buffer stays within the window bound throughout.
func TestUDPExtremeReorderSoakBoundedOOO(t *testing.T) {
	cc := Chaos{
		Seed:     1234,
		Drop:     0.05,
		Dup:      0.25,
		Reorder:  0.50,
		DelayMax: 500 * time.Microsecond,
	}
	e0, e1, counters := newUDPPair(t, UDPOptions{Chaos: &cc, RTO: 10 * time.Millisecond})
	const msgs = 200
	payload := make([]byte, 1<<20) // ~16 fragments, crosses the window
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	go func() {
		if err := e0.Send(wire.Message{Type: wire.TObjFetchReply, To: 1, Payload: payload}); err != nil {
			t.Error(err)
		}
		for i := 0; i < msgs; i++ {
			var w wire.Buffer
			w.U32(uint32(i))
			if err := e0.Send(wire.Message{Type: wire.TJDiff, To: 1, Payload: w.Bytes()}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	m, ok := recvTimeout(t, e1, 120*time.Second)
	if !ok || !bytes.Equal(m.Payload, payload) {
		t.Fatal("large transfer corrupted or lost under extreme reordering")
	}
	for want := uint32(0); want < msgs; want++ {
		m, ok := recvTimeout(t, e1, 120*time.Second)
		if !ok {
			t.Fatalf("stream died at %d/%d", want, msgs)
		}
		if got := wire.NewReader(m.Payload).U32(); got != want {
			t.Fatalf("got %d, want %d (dup/reorder leaked through)", got, want)
		}
	}
	hw := e1.oooHighWater(0)
	if hw > int(e1.window) {
		t.Fatalf("ooo high water %d exceeded window %d under reordering soak", hw, e1.window)
	}
	// Delayed acks must not starve fast retransmit: out-of-order frames
	// are still acked at once, so the sender sees duplicate acks.
	if counters[0].FastRetrans.Load() == 0 {
		t.Error("no fast retransmit under 5% drop and 50% reordering")
	}
	t.Logf("soak: ooo high water %d/%d, retrans=%d fast=%d rtt_samples=%d acks=%d piggybacked=%d",
		hw, e1.window, counters[0].FragsRetrans.Load(),
		counters[0].FastRetrans.Load(), counters[0].RTTSamples.Load(),
		counters[1].AcksSent.Load(), counters[1].AcksPiggybacked.Load())
}

// newUDPSinkEndpoint binds endpoint 0 of a two-node cluster whose peer
// address is held by a raw socket that never acks on its own, with the
// retransmission clock parked, so a test alone decides which acks and
// data frames reach the endpoint.
func newUDPSinkEndpoint(t *testing.T) (*UDPEndpoint, *net.UDPConn, *stats.Counters) {
	t.Helper()
	addrs, err := FreeLocalAddrs(2)
	if err != nil {
		t.Fatal(err)
	}
	peerAddr, err := net.ResolveUDPAddr("udp", addrs[1])
	if err != nil {
		t.Fatal(err)
	}
	sink, err := net.ListenUDP("udp", peerAddr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sink.Close() })
	counters := &stats.Counters{}
	e0, err := NewUDPEndpointOptions(0, addrs, UDPOptions{
		Counters: counters,
		RTO:      time.Hour, MinRTO: time.Hour, MaxRTO: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e0.Close() })
	return e0, sink, counters
}

// injectData writes one single-fragment message from the sink to e0 as
// a data frame with the given sequence number and piggybacked ack, and
// waits until e0 has delivered it.
func injectData(t *testing.T, e0 *UDPEndpoint, sink *net.UDPConn, seq, ack uint32) {
	t.Helper()
	m := wire.Message{Type: wire.TJDiff, From: 1, To: 0, Payload: []byte{byte(seq)}}
	frags := wire.Fragment(wire.Encode(m), uint64(seq)<<16|1)
	if len(frags) != 1 {
		t.Fatalf("want one fragment, got %d", len(frags))
	}
	to, err := net.ResolveUDPAddr("udp", e0.LocalAddr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sink.WriteToUDP(makeFrame(frameData, 1, seq, ack, frags[0]), to); err != nil {
		t.Fatal(err)
	}
	if got, ok := recvTimeout(t, e0, 5*time.Second); !ok || got.Payload[0] != byte(seq) {
		t.Fatalf("injected frame %d not delivered: ok=%v %+v", seq, ok, got)
	}
}

// TestUDPPingPongPiggybacksAcks runs a request/response exchange on a
// clean link: every data frame carries the ack its reply would
// otherwise need, so standalone ack datagrams stay a small fraction of
// the round trips. The delayed-ack bound is widened (MinRTO/8 = 2ms)
// so a slow scheduler does not turn piggybacks into timer acks.
func TestUDPPingPongPiggybacksAcks(t *testing.T) {
	const rounds = 200
	e0, e1, counters := newUDPPair(t, UDPOptions{MinRTO: 16 * time.Millisecond})
	go func() {
		for i := 0; i < rounds; i++ {
			m, ok := e1.Recv()
			if !ok {
				return
			}
			if err := e1.Send(wire.Message{Type: wire.TAck, To: 0, Payload: m.Payload}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < rounds; i++ {
		if err := e0.Send(wire.Message{Type: wire.TLockReq, To: 1, Payload: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
		if m, ok := recvTimeout(t, e0, 5*time.Second); !ok || m.Payload[0] != byte(i) {
			t.Fatalf("round %d: reply lost or out of order: ok=%v %+v", i, ok, m)
		}
	}
	if err := e0.Flush(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	acks := counters[0].AcksSent.Load() + counters[1].AcksSent.Load()
	piggy := counters[0].AcksPiggybacked.Load() + counters[1].AcksPiggybacked.Load()
	if acks > rounds/4 {
		t.Fatalf("%d round trips sent %d standalone acks, want <= %d", rounds, acks, rounds/4)
	}
	if piggy < rounds {
		t.Errorf("only %d acks piggybacked over %d round trips", piggy, rounds)
	}
	t.Logf("%d round trips: %d standalone acks, %d piggybacked", rounds, acks, piggy)
}

// TestUDPOneWayMessageAcked sends one message with no reverse traffic
// to carry its ack: the delayed-ack timer must send it well inside the
// retransmission timeout.
func TestUDPOneWayMessageAcked(t *testing.T) {
	e0, e1, counters := newUDPPair(t, UDPOptions{RTO: time.Second, MinRTO: 2 * time.Millisecond})
	if err := e0.Send(wire.Message{Type: wire.TJDiff, To: 1, Payload: []byte("one-way")}); err != nil {
		t.Fatal(err)
	}
	if _, ok := recvTimeout(t, e1, 5*time.Second); !ok {
		t.Fatal("message lost")
	}
	if err := e0.Flush(50 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if got := counters[1].AcksSent.Load(); got != 1 {
		t.Errorf("receiver sent %d standalone acks, want 1 (the delayed ack)", got)
	}
	if rt := counters[0].FragsRetrans.Load(); rt != 0 {
		t.Errorf("sender retransmitted %d frames waiting for the delayed ack", rt)
	}
}

// TestUDPAckEveryOtherFrame streams four windows of one-way messages
// with the delayed-ack timer parked far out (MinRTO/8 = 125ms): the
// second owed frame must be acked at once, or the sender's window
// would stall on the timer after every 32 frames.
func TestUDPAckEveryOtherFrame(t *testing.T) {
	e0, e1, counters := newUDPPair(t, UDPOptions{RTO: time.Second, MinRTO: time.Second})
	msgs := 4 * int(e0.window)
	go func() {
		for i := 0; i < msgs; i++ {
			if err := e0.Send(wire.Message{Type: wire.TJDiff, To: 1, Payload: []byte{byte(i)}}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < msgs; i++ {
		if m, ok := recvTimeout(t, e1, 5*time.Second); !ok || m.Payload[0] != byte(i) {
			t.Fatalf("message %d lost or out of order: ok=%v %+v", i, ok, m)
		}
	}
	if acks := counters[1].AcksSent.Load(); acks < int64(msgs/2) || acks > int64(msgs) {
		t.Fatalf("%d one-way frames drew %d standalone acks, want %d..%d", msgs, acks, msgs/2, msgs)
	}
}

// TestUDPPiggybackNeverDupAck feeds a stream of reverse data frames
// that all carry the same cumulative ack while data is outstanding.
// Standalone acks like that would be duplicates and trigger fast
// retransmit; piggybacked ones must only ever advance the window.
func TestUDPPiggybackNeverDupAck(t *testing.T) {
	e0, sink, counters := newUDPSinkEndpoint(t)
	for i := 0; i < 6; i++ {
		if err := e0.Send(wire.Message{Type: wire.TJDiff, To: 1, Payload: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	for seq := uint32(0); seq < 3*dupAckThreshold; seq++ {
		injectData(t, e0, sink, seq, 2)
	}
	ss := e0.sendsts[1]
	ss.mu.Lock()
	ackedTo, inFly, dups := ss.ackedTo, len(ss.inFly), ss.dupAcks
	ss.mu.Unlock()
	if ackedTo != 2 || inFly != 4 || dups != 0 {
		t.Fatalf("ackedTo=%d inFly=%d dupAcks=%d, want 2, 4, 0", ackedTo, inFly, dups)
	}
	if fr := counters.FastRetrans.Load(); fr != 0 {
		t.Fatalf("FastRetrans = %d after repeated piggybacked acks, want 0", fr)
	}
}

// TestUDPPiggybackAckClamped injects a data frame whose piggybacked ack
// lies beyond anything sent. It is clamped to nextSeq like a forged
// standalone ack, so the unsigned window arithmetic cannot wrap and the
// channel keeps admitting a full window.
func TestUDPPiggybackAckClamped(t *testing.T) {
	e0, sink, counters := newUDPSinkEndpoint(t)
	for i := 0; i < 3; i++ {
		if err := e0.Send(wire.Message{Type: wire.TJDiff, To: 1, Payload: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	injectData(t, e0, sink, 0, 1<<31)
	ss := e0.sendsts[1]
	ss.mu.Lock()
	ackedTo, nextSeq, inFly := ss.ackedTo, ss.nextSeq, len(ss.inFly)
	ss.mu.Unlock()
	if ackedTo != 3 || nextSeq != 3 || inFly != 0 {
		t.Fatalf("after forged piggyback: ackedTo=%d nextSeq=%d inFly=%d, want 3, 3, 0", ackedTo, nextSeq, inFly)
	}
	sent := make(chan error, 1)
	go func() {
		for i := 0; i < int(e0.window); i++ {
			if err := e0.Send(wire.Message{Type: wire.TJDiff, To: 1, Payload: []byte{byte(i)}}); err != nil {
				sent <- err
				return
			}
		}
		sent <- nil
	}()
	select {
	case err := <-sent:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("window wedged after a forged piggybacked ack")
	}
	if fr := counters.FastRetrans.Load(); fr != 0 {
		t.Errorf("FastRetrans = %d, want 0", fr)
	}
}

// TestUDPFlushAfterReceiverClose has the receiver close while it still
// owes the ack for the last message. Close must send it, or the
// sender's Flush would wait on a rank that has exited. The timeouts are
// parked far beyond the Flush deadline, so neither the delayed-ack
// timer nor a retransmission can stand in for Close.
func TestUDPFlushAfterReceiverClose(t *testing.T) {
	e0, e1, counters := newUDPPair(t, UDPOptions{RTO: time.Second, MinRTO: time.Second})
	if err := e0.Send(wire.Message{Type: wire.TJDiff, To: 1, Payload: []byte("last")}); err != nil {
		t.Fatal(err)
	}
	if _, ok := recvTimeout(t, e1, 5*time.Second); !ok {
		t.Fatal("message lost")
	}
	if err := e1.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e0.Flush(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if got := counters[1].AcksSent.Load(); got != 1 {
		t.Errorf("closing receiver sent %d standalone acks, want 1", got)
	}
}

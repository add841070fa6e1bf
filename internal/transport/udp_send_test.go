package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net/netip"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// tiers is the batch-tier ladder every cross-tier test walks.
var tiers = []UDPBatchMode{BatchPortable, BatchMmsg, BatchAuto}

// stamp builds a datagram of n ≥ 8 bytes carrying (stream, seq) in its
// first 8 bytes and a filler derived from both after them, so a datagram
// that arrives out of order, cut short or re-cut at the wrong boundary
// fails check.
func stamp(n int, stream, seq uint32) []byte {
	p := make([]byte, n)
	binary.BigEndian.PutUint32(p, stream)
	binary.BigEndian.PutUint32(p[4:], seq)
	for i := 8; i < n; i++ {
		p[i] = byte(stream*31 + seq*7 + uint32(i))
	}
	return p
}

// unstamp reads a datagram built by stamp back, reporting whether its
// filler is intact.
func unstamp(p []byte) (stream, seq uint32, ok bool) {
	if len(p) < 8 {
		return 0, 0, false
	}
	stream, seq = binary.BigEndian.Uint32(p), binary.BigEndian.Uint32(p[4:])
	for i := 8; i < len(p); i++ {
		if p[i] != byte(stream*31+seq*7+uint32(i)) {
			return stream, seq, false
		}
	}
	return stream, seq, true
}

// engineGoroutines counts the send-engine goroutines alive in the process.
func engineGoroutines() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	return strings.Count(string(buf), "(*UDPEndpoint).sendLoop")
}

// TestUDPSendOrder interleaves SendTo and SendBatch from one endpoint to
// three peers, on every sender tier × receiver tier and at GOMAXPROCS 1 and
// 4: each peer must receive every datagram intact and in call order. The
// send engine is the endpoint's one sender, so a SendTo (an rudp ACK) can
// never overtake a SendBatch (DATA) queued before it. Bursts mix equal
// sizes (one GSO send), ragged sizes (sendmmsg) and datagrams large enough
// to fill the queue's arena mid-burst. The sender pauses between rounds
// until every peer has caught up, so the receive buffers never overflow.
func TestUDPSendOrder(t *testing.T) {
	for _, procs := range []int{1, 4} {
		for _, sm := range tiers {
			for _, rm := range tiers {
				t.Run(fmt.Sprintf("procs=%d/%s_to_%s", procs, modeName(sm), modeName(rm)), func(t *testing.T) {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
					sendOrder(t, sm, rm)
				})
			}
		}
	}
}

func sendOrder(t *testing.T, sm, rm UDPBatchMode) {
	const peers, rounds = 3, 6
	src, err := ListenUDPMode("127.0.0.1", 0, sm)
	if err != nil {
		t.Skipf("no loopback UDP: %v", err)
	}
	defer src.Close()
	dsts := make([]*UDPEndpoint, peers)
	for i := range dsts {
		if dsts[i], err = ListenUDPMode("127.0.0.1", 0, rm); err != nil {
			t.Fatal(err)
		}
		defer dsts[i].Close()
	}

	// One reader per peer, checking order as datagrams arrive.
	var mu sync.Mutex
	got := make([]uint32, peers) // datagrams each peer has accepted in order
	errc := make(chan error, peers)
	var wg sync.WaitGroup
	for i, d := range dsts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pkts := make([][]byte, 16)
			froms := make([]Addr, 16)
			for {
				n, err := d.RecvBatch(pkts, froms, 0)
				if err != nil {
					if !errors.Is(err, ErrClosed) {
						errc <- err
					}
					return
				}
				for _, p := range pkts[:n] {
					stream, seq, ok := unstamp(p)
					mu.Lock()
					want := got[i]
					if ok && stream == uint32(i) && seq == want {
						got[i]++
					}
					mu.Unlock()
					if !ok || stream != uint32(i) || seq != want {
						errc <- fmt.Errorf("peer %d: datagram (stream %d, seq %d, %d bytes, intact %v), want seq %d",
							i, stream, seq, len(p), ok, want)
						d.Recycle(p)
						return
					}
					d.Recycle(p)
				}
			}
		}()
	}

	rng := rand.New(rand.NewSource(7))
	sent := make([]uint32, peers)
	next := func(peer, n int) []byte {
		p := stamp(n, uint32(peer), sent[peer])
		sent[peer]++
		return p
	}
	for round := 0; round < rounds; round++ {
		for op := 0; op < 24; op++ {
			peer := rng.Intn(peers)
			to := dsts[peer].LocalAddr()
			switch rng.Intn(4) {
			case 0: // a lone datagram: an ACK between bursts
				if err := src.SendTo(next(peer, 8+rng.Intn(64)), to); err != nil {
					t.Fatal(err)
				}
			case 1: // equal sizes: GSO-eligible
				size := 64 + rng.Intn(1400)
				burst := make([][]byte, 2+rng.Intn(14))
				for i := range burst {
					burst[i] = next(peer, size)
				}
				if n, err := src.SendBatch(burst, to); n != len(burst) || err != nil {
					t.Fatalf("SendBatch = %d, %v", n, err)
				}
			case 2: // ragged sizes: sendmmsg
				burst := make([][]byte, 1+rng.Intn(8))
				for i := range burst {
					burst[i] = next(peer, 8+rng.Intn(1500))
				}
				if n, err := src.SendBatch(burst, to); n != len(burst) || err != nil {
					t.Fatalf("SendBatch = %d, %v", n, err)
				}
			case 3: // large datagrams: the arena fills mid-burst
				burst := [][]byte{next(peer, 20000+rng.Intn(20000)), next(peer, 30000+rng.Intn(30000))}
				if n, err := src.SendBatch(burst, to); n != len(burst) || err != nil {
					t.Fatalf("SendBatch = %d, %v", n, err)
				}
			}
		}
		// Wait for every peer to catch up before the next round.
		deadline := time.Now().Add(10 * time.Second)
		for {
			mu.Lock()
			done := true
			for i := range got {
				done = done && got[i] == sent[i]
			}
			mu.Unlock()
			if done {
				break
			}
			select {
			case err := <-errc:
				t.Fatal(err)
			default:
			}
			if time.Now().After(deadline) {
				t.Fatalf("round %d: peers received %v of %v", round, got, sent)
			}
			time.Sleep(time.Millisecond)
		}
	}
	for _, d := range dsts {
		d.Close()
	}
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
}

// TestUDPSendCoalesces shows the send engine's point in a count: at
// GOMAXPROCS=1, sixteen 1 KiB SendTo calls to one peer, made while the
// engine cannot run, leave in one syscall — one GSO send, or one sendmmsg
// on the mmsg tier. The portable tier has no multi-datagram syscall and is
// not run.
func TestUDPSendCoalesces(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, mode := range []UDPBatchMode{BatchMmsg, BatchAuto} {
		t.Run(modeName(mode), func(t *testing.T) {
			src, dst := udpPairMode(t, mode, BatchPortable)
			if !src.BatchFeatures().Sendmmsg {
				t.Skipf("kernel without sendmmsg (features %v)", src.BatchFeatures())
			}
			const burst = 16
			to := dst.LocalAddr()
			round := func(r int) {
				var msgs [burst][]byte
				for i := range msgs {
					msgs[i] = stamp(1024, uint32(r), uint32(i))
				}
				for _, p := range msgs {
					if err := src.SendTo(p, to); err != nil {
						t.Fatal(err)
					}
				}
			}
			drain := func(r int) {
				for i := 0; i < burst; i++ {
					p, _, err := dst.Recv(2 * time.Second)
					if err != nil {
						t.Fatalf("round %d, datagram %d: %v", r, i, err)
					}
					if stream, seq, ok := unstamp(p); !ok || stream != uint32(r) || seq != uint32(i) {
						t.Fatalf("round %d: got (%d, %d, intact %v), want (%d, %d)", r, stream, seq, ok, r, i)
					}
					dst.Recycle(p)
				}
			}
			// Two warm-up rounds size both arenas, so the measured round's
			// SendTo calls allocate nothing that could hand the engine the
			// processor.
			for r := 0; r < 2; r++ {
				round(r)
				drain(r)
			}
			sys0, segs0 := mBatchSyscalls.Snapshot(), mSegsPerSyscall.Snapshot()
			round(2)
			if err := src.Close(); err != nil { // flushes what was queued
				t.Fatal(err)
			}
			sys1, segs1 := mBatchSyscalls.Snapshot(), mSegsPerSyscall.Snapshot()
			if bursts, calls := sys1.Count-sys0.Count, sys1.Sum-sys0.Sum; bursts != 1 || calls != 1 {
				t.Fatalf("%d SendTo calls left in %d kernel bursts of %d syscalls, want 1 of 1", burst, bursts, calls)
			}
			if segs := segs1.Sum - segs0.Sum; segs != burst {
				t.Fatalf("the one syscall carried %d datagrams, want %d", segs, burst)
			}
			drain(2)
		})
	}
}

// TestUDPCloseSemantics pins Close on every tier: what was queued before it
// is sent, the engine goroutine has exited by the time it returns, a second
// Close is harmless, and SendTo/SendBatch report ErrClosed afterwards.
func TestUDPCloseSemantics(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // see the goroutine count after Close
	for _, mode := range tiers {
		t.Run(modeName(mode), func(t *testing.T) {
			before := engineGoroutines()
			src, dst := udpPairMode(t, mode, BatchAuto)
			// A new goroutine may not have entered its function yet.
			for deadline := time.Now().Add(2 * time.Second); engineGoroutines()-before != 2; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("two endpoints run %d send engines, want 2", engineGoroutines()-before)
				}
			}
			to := dst.LocalAddr()
			const total = 40
			for i := 0; i < total; i += 4 {
				if err := src.SendTo(stamp(900, 0, uint32(i)), to); err != nil {
					t.Fatal(err)
				}
				burst := [][]byte{stamp(900, 0, uint32(i+1)), stamp(900, 0, uint32(i+2)), stamp(40000, 0, uint32(i+3))}
				if n, err := src.SendBatch(burst, to); n != 3 || err != nil {
					t.Fatalf("SendBatch = %d, %v", n, err)
				}
			}
			if err := src.Close(); err != nil {
				t.Fatal(err)
			}
			// At GOMAXPROCS=1 the engine runs to its end before Close's
			// caller is scheduled again: it is gone, not merely done.
			if n := engineGoroutines() - before; n != 1 {
				t.Fatalf("%d send engines after closing one of two endpoints, want 1", n)
			}
			if err := src.Close(); err != nil {
				t.Fatalf("second Close: %v", err)
			}
			if err := src.SendTo([]byte("late"), to); !errors.Is(err, ErrClosed) {
				t.Fatalf("SendTo after Close: %v, want ErrClosed", err)
			}
			if n, err := src.SendBatch([][]byte{[]byte("late")}, to); n != 0 || !errors.Is(err, ErrClosed) {
				t.Fatalf("SendBatch after Close = %d, %v; want 0, ErrClosed", n, err)
			}
			if n, err := src.SendBatch(nil, to); n != 0 || !errors.Is(err, ErrClosed) {
				t.Fatalf("empty SendBatch after Close = %d, %v; want 0, ErrClosed", n, err)
			}
			for i := 0; i < total; i++ {
				p, _, err := dst.Recv(2 * time.Second)
				if err != nil {
					t.Fatalf("datagram %d queued before Close never arrived: %v", i, err)
				}
				if _, seq, ok := unstamp(p); !ok || seq != uint32(i) {
					t.Fatalf("datagram %d: got seq %d (intact %v)", i, seq, ok)
				}
				dst.Recycle(p)
			}
			dst.Close()
			if n := engineGoroutines() - before; n != 0 {
				t.Fatalf("%d send engines left after closing both endpoints", n)
			}
		})
	}
}

// TestUDPSendErrors pins which failures SendTo and SendBatch report: the
// ones knowable at the call — size, address family — come back
// synchronously with nothing queued; a datagram the kernel refuses after it
// was queued (here port 0, EINVAL on Linux) is a drop, counted in
// diwarp_transport_tx_dropped_total and traced as EvDrop with cause
// DropTxRefused, and the datagrams around it still go.
func TestUDPSendErrors(t *testing.T) {
	for _, mode := range tiers {
		t.Run(modeName(mode), func(t *testing.T) {
			src, dst := udpPairMode(t, mode, BatchAuto)
			to := dst.LocalAddr()
			if n, err := src.SendBatch([][]byte{{1}, make([]byte, MaxDatagramSize+1)}, to); n != 0 || !errors.Is(err, ErrTooLarge) {
				t.Fatalf("oversized burst = %d, %v; want 0, ErrTooLarge", n, err)
			}
			if err := src.SendTo([]byte{1}, netip.MustParseAddrPort("[2001:db8::1]:9")); !errors.Is(err, ErrNoRoute) {
				t.Fatalf("IPv6 destination on an IPv4 socket: %v, want ErrNoRoute", err)
			}
			if err := src.SendTo([]byte{1}, Addr{}); !errors.Is(err, ErrNoRoute) {
				t.Fatalf("the zero Addr: %v, want ErrNoRoute", err)
			}

			telemetry.DefaultTrace.Drain()
			dropped := mTxDropped.Load()
			refused := netip.AddrPortFrom(to.Addr(), 0)
			if err := src.SendTo(stamp(64, 0, 0), to); err != nil {
				t.Fatal(err)
			}
			if err := src.SendTo(make([]byte, 77), refused); err != nil {
				t.Fatalf("a kernel refusal surfaced at the call: %v", err)
			}
			if n, err := src.SendBatch([][]byte{make([]byte, 77), make([]byte, 77)}, refused); n != 2 || err != nil {
				t.Fatalf("SendBatch to a refused destination = %d, %v; want 2, nil", n, err)
			}
			if err := src.SendTo(stamp(64, 0, 1), to); err != nil {
				t.Fatal(err)
			}
			if err := src.Close(); err != nil {
				t.Fatal(err)
			}
			if d := mTxDropped.Load() - dropped; d != 3 {
				t.Fatalf("diwarp_transport_tx_dropped_total rose by %d, want 3", d)
			}
			traced := 0
			for _, ev := range telemetry.DefaultTrace.Drain() {
				if ev.Type == telemetry.EvDrop && ev.Arg == telemetry.DropTxRefused && ev.Bytes == 77 {
					traced++
				}
			}
			if traced != 3 {
				t.Fatalf("%d EvDrop/DropTxRefused events, want 3", traced)
			}
			for i := 0; i < 2; i++ {
				p, _, err := dst.Recv(2 * time.Second)
				if err != nil {
					t.Fatalf("datagram %d around the refusals: %v", i, err)
				}
				if _, seq, ok := unstamp(p); !ok || seq != uint32(i) {
					t.Fatalf("datagram %d: got seq %d (intact %v)", i, seq, ok)
				}
				dst.Recycle(p)
			}
		})
	}
}

// TestUDPSendEngineRace is the send engine's race stress (make
// chaos-smoke-race runs it under -race): eight goroutines SendBatch to two
// peers while the socket is closed under them. No call may panic or fail
// with anything but ErrClosed, and each peer must see every goroutine's
// datagrams intact and in that goroutine's order (the receive buffer may
// drop some; it may not reorder them).
func TestUDPSendEngineRace(t *testing.T) {
	const senders = 8
	src, err := ListenUDP("127.0.0.1", 0)
	if err != nil {
		t.Skipf("no loopback UDP: %v", err)
	}
	var dsts [2]*UDPEndpoint
	for i := range dsts {
		if dsts[i], err = ListenUDP("127.0.0.1", 0); err != nil {
			t.Fatal(err)
		}
		defer dsts[i].Close()
	}

	var recv sync.WaitGroup
	recvErr := make(chan error, len(dsts))
	for pi, d := range dsts {
		recv.Add(1)
		go func() {
			defer recv.Done()
			last := make(map[uint32]int64) // stream -> last seq seen
			pkts := make([][]byte, 32)
			froms := make([]Addr, 32)
			for {
				n, err := d.RecvBatch(pkts, froms, 500*time.Millisecond)
				if err != nil {
					return // ErrTimeout: the closed sender has gone quiet
				}
				for _, p := range pkts[:n] {
					stream, seq, ok := unstamp(p)
					d.Recycle(p)
					if !ok || stream>>8 != uint32(pi) {
						recvErr <- fmt.Errorf("peer %d: corrupt or misdelivered datagram (stream %#x)", pi, stream)
						return
					}
					if prev, seen := last[stream]; seen && int64(seq) <= prev {
						recvErr <- fmt.Errorf("peer %d: stream %#x seq %d after %d", pi, stream, seq, prev)
						return
					}
					last[stream] = int64(seq)
				}
			}
		}()
	}

	var send sync.WaitGroup
	sendErr := make(chan error, senders)
	for g := 0; g < senders; g++ {
		send.Add(1)
		go func() {
			defer send.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			var seq [2]uint32
			for {
				pi := rng.Intn(len(dsts))
				stream := uint32(pi)<<8 | uint32(g)
				burst := make([][]byte, 1+rng.Intn(8))
				for i := range burst {
					burst[i] = stamp(8+rng.Intn(1500), stream, seq[pi])
					seq[pi]++
				}
				if _, err := src.SendBatch(burst, dsts[pi].LocalAddr()); err != nil {
					if !errors.Is(err, ErrClosed) {
						sendErr <- err
					}
					return
				}
			}
		}()
	}
	time.Sleep(100 * time.Millisecond)
	if err := src.Close(); err != nil {
		t.Fatal(err)
	}
	send.Wait()
	recv.Wait()
	close(sendErr)
	for err := range sendErr {
		t.Errorf("SendBatch across Close: %v, want ErrClosed", err)
	}
	select {
	case err := <-recvErr:
		t.Fatal(err)
	default:
	}
}

package transport

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"
)

// udpPairMode is udpPair with the batch-capability probe pinned, so the same
// assertions can run over every fallback tier (kernel batch, mmsg-only,
// portable loop).
func udpPairMode(t testing.TB, amode, bmode UDPBatchMode) (a, b *UDPEndpoint) {
	t.Helper()
	a, err := ListenUDPMode("127.0.0.1", 0, amode)
	if err != nil {
		t.Skipf("no loopback UDP: %v", err)
	}
	b, err = ListenUDPMode("127.0.0.1", 0, bmode)
	if err != nil {
		a.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, b
}

func modeName(m UDPBatchMode) string {
	switch m {
	case BatchPortable:
		return "portable"
	case BatchMmsg:
		return "mmsg"
	default:
		return "auto"
	}
}

// TestUDPBatchModeTiers checks the capability probe honours the mode ladder
// and its own invariants: portable mode reports no features, mmsg mode never
// reports the offloads, and the offloads imply their base syscalls.
func TestUDPBatchModeTiers(t *testing.T) {
	p, err := ListenUDPMode("127.0.0.1", 0, BatchPortable)
	if err != nil {
		t.Skipf("no loopback UDP: %v", err)
	}
	defer p.Close()
	if p.kern != nil {
		t.Fatal("BatchPortable still built a kernel datapath")
	}
	if f := p.BatchFeatures(); f != (BatchFeatures{}) {
		t.Fatalf("portable endpoint reports features %v", f)
	}
	if s := p.BatchFeatures().String(); s != "portable" {
		t.Fatalf("portable feature string = %q", s)
	}

	m, err := ListenUDPMode("127.0.0.1", 0, BatchMmsg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if f := m.BatchFeatures(); f.GSO || f.GRO {
		t.Fatalf("BatchMmsg enabled an offload: %v", f)
	}

	a, err := ListenUDPMode("127.0.0.1", 0, BatchAuto)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	f := a.BatchFeatures()
	t.Logf("auto probe on this kernel: %v", f)
	if f.GSO && !f.Sendmmsg {
		t.Fatalf("GSO without sendmmsg: %v", f)
	}
	if f.GRO && !f.Recvmmsg {
		t.Fatalf("GRO without recvmmsg: %v", f)
	}
}

// equivalenceBursts builds the burst shapes the cross-path test sends: a
// GSO-eligible run of equal segments (distinct payloads, so kernel re-cut
// and GRO split-back errors surface as content corruption), a ragged burst
// that must take the mmsg path, a lone datagram, a burst containing an
// empty datagram, and a single large datagram near the size cap.
func equivalenceBursts() [][][]byte {
	fill := func(n, tag int) []byte {
		p := make([]byte, n)
		for i := range p {
			p[i] = byte(tag + i*7)
		}
		return p
	}
	equal := make([][]byte, 16)
	for i := range equal {
		equal[i] = fill(512, i)
	}
	ragged := [][]byte{fill(1, 100), fill(700, 101), fill(512, 102), fill(1499, 103)}
	withEmpty := [][]byte{fill(64, 110), {}, fill(64, 111)}
	return [][][]byte{
		equal,
		ragged,
		{fill(333, 120)},
		withEmpty,
		{fill(60000, 130)},
	}
}

// TestUDPBatchEquivalence runs the same traffic over every sender-tier ×
// receiver-tier combination and asserts byte-identical delivery and exact
// per-burst send counts: the kernel batch paths (mmsg, GSO, GRO split-back)
// must be indistinguishable from the portable loop at the Datagram contract.
func TestUDPBatchEquivalence(t *testing.T) {
	for _, sm := range tiers {
		for _, rm := range tiers {
			t.Run(modeName(sm)+"_to_"+modeName(rm), func(t *testing.T) {
				src, dst := udpPairMode(t, sm, rm)
				t.Logf("send features %v, recv features %v",
					src.BatchFeatures(), dst.BatchFeatures())

				want := make(map[string]int)
				total := 0
				for bi, burst := range equivalenceBursts() {
					n, err := src.SendBatch(burst, dst.LocalAddr())
					if err != nil {
						t.Fatalf("burst %d: %v", bi, err)
					}
					if n != len(burst) {
						t.Fatalf("burst %d: sent %d of %d", bi, n, len(burst))
					}
					for _, p := range burst {
						want[string(p)]++
						total++
					}
				}

				pkts := make([][]byte, 8)
				froms := make([]Addr, 8)
				got := 0
				for got < total {
					n, err := dst.RecvBatch(pkts, froms, 2*time.Second)
					if err != nil {
						t.Fatalf("after %d/%d: %v", got, total, err)
					}
					for i := 0; i < n; i++ {
						if froms[i] != src.LocalAddr() {
							t.Fatalf("packet %d from %v, want %v", got+i, froms[i], src.LocalAddr())
						}
						key := string(pkts[i])
						if want[key] == 0 {
							t.Fatalf("unexpected or duplicate %d-byte datagram", len(pkts[i]))
						}
						want[key]--
						dst.Recycle(pkts[i])
					}
					got += n
				}
				// Exactly the sent datagrams, nothing extra queued.
				if _, err := dst.RecvBatch(pkts, froms, 50*time.Millisecond); !errors.Is(err, ErrTimeout) {
					t.Fatalf("socket not drained after %d datagrams: %v", total, err)
				}
			})
		}
	}
}

// TestUDPGSOBoundaries pins the offload round trip: one GSO send is re-cut
// by the kernel into wire datagrams at segment boundaries, and the GRO
// receiver splits any re-coalesced super-segment back without moving a
// boundary, into buffers of the segments' size class. Runs only where the
// probe enabled GSO.
func TestUDPGSOBoundaries(t *testing.T) {
	src, dst := udpPairMode(t, BatchAuto, BatchAuto)
	if !src.BatchFeatures().GSO {
		t.Skipf("kernel without UDP_SEGMENT (features %v)", src.BatchFeatures())
	}
	const segs, segsz = 32, 1024
	burst := make([][]byte, segs)
	for i := range burst {
		burst[i] = bytes.Repeat([]byte{byte(i + 1)}, segsz)
	}
	burst[segs-1] = burst[segs-1][:segsz-100] // smaller tail is still eligible
	n, err := src.SendBatch(burst, dst.LocalAddr())
	if err != nil {
		t.Fatal(err)
	}
	if n != segs {
		t.Fatalf("sent %d of %d", n, segs)
	}
	seen := make(map[byte]int)
	split := 0
	pkts := make([][]byte, 4) // smaller than the burst: exercises pending spill
	froms := make([]Addr, 4)
	for got := 0; got < segs; {
		k, err := dst.RecvBatch(pkts, froms, 2*time.Second)
		if err != nil {
			t.Fatalf("after %d/%d: %v", got, segs, err)
		}
		for i := 0; i < k; i++ {
			p := pkts[i]
			if len(p) == 0 {
				t.Fatal("empty datagram out of a GSO burst")
			}
			tag := p[0]
			wantLen := segsz
			if int(tag) == segs {
				wantLen = segsz - 100
			}
			if len(p) != wantLen {
				t.Fatalf("segment %d: %d bytes, want %d (boundary moved)", tag, len(p), wantLen)
			}
			for _, c := range p {
				if c != tag {
					t.Fatalf("segment %d: payload bled across a boundary", tag)
				}
			}
			seen[tag]++
			if cap(p) == splitBufSize {
				split++
			}
			dst.Recycle(p)
		}
		got += k
	}
	for i := 1; i <= segs; i++ {
		if seen[byte(i)] != 1 {
			t.Fatalf("segment %d delivered %d times", i, seen[byte(i)])
		}
	}
	// A GRO receiver takes the send as super-segments; every segment but
	// the first of each is copied into a 2 KiB split buffer, not a 64 KiB
	// receive buffer, and Recycle returns it to the split pool.
	if dst.BatchFeatures().GRO {
		if split == 0 {
			t.Fatal("no segment of a coalesced burst landed in a split buffer")
		}
		if out := dst.split.Outstanding(); out != 0 {
			t.Fatalf("%d split buffers not back in their pool after Recycle", out)
		}
	}
}

// TestUDPSendBatchAllocFree pins the kernel send path at 0 allocs/op in
// steady state, for both the GSO single-send and the mmsg chunk loop.
func TestUDPSendBatchAllocFree(t *testing.T) {
	src, dst := udpPairMode(t, BatchAuto, BatchPortable)
	if !src.BatchFeatures().Sendmmsg {
		t.Skipf("kernel without sendmmsg (features %v)", src.BatchFeatures())
	}
	to := dst.LocalAddr()
	equal := make([][]byte, 32) // GSO-eligible when the probe allows
	for i := range equal {
		equal[i] = bytes.Repeat([]byte{byte(i)}, 512)
	}
	ragged := [][]byte{equal[0][:100], equal[1], equal[2][:300]} // mmsg only
	for name, burst := range map[string][][]byte{"equal": equal, "ragged": ragged} {
		// Warm the socket; the receiver never reads, drops are fine.
		if _, err := src.SendBatch(burst, to); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := src.SendBatch(burst, to); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s burst: SendBatch allocates %.2f times per burst, want 0", name, allocs)
		}
	}
}

// TestUDPRecvBatchAllocFreeKernel pins the recvmmsg path at 0 allocs/op in
// steady state: pooled buffers, source as a value, prebuilt syscall closure.
func TestUDPRecvBatchAllocFreeKernel(t *testing.T) {
	src, dst := udpPairMode(t, BatchAuto, BatchAuto)
	if !dst.BatchFeatures().Recvmmsg {
		t.Skipf("kernel without recvmmsg (features %v)", dst.BatchFeatures())
	}
	msg := bytes.Repeat([]byte{9}, 1024)
	to := dst.LocalAddr()
	pkts := make([][]byte, 1) // one slot: each run consumes exactly one datagram
	froms := make([]Addr, 1)
	const runs = 100
	burst := func() {
		for i := 0; i < runs+1; i++ { // +1: AllocsPerRun's warm-up call
			if err := src.SendTo(msg, to); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Warm the pools, the split path and the address cache on bursts of
	// the measured shape: the send engine flushes a burst in GSO runs, and
	// on a GRO socket a coalesced run is split into pooled buffers and a
	// pending queue, which grow to the largest run they have seen.
	for w := 0; w < 3; w++ {
		burst()
		for got := 0; got < runs+1; got++ {
			if _, err := dst.RecvBatch(pkts, froms, 2*time.Second); err != nil {
				t.Fatal(err)
			}
			dst.Recycle(pkts[0])
		}
	}
	// Queue the measured burst, then close the sender: Close waits until
	// the engine has sent everything queued, so the engine does not run
	// during the measurement and every datagram is already in dst's socket
	// buffer.
	burst()
	src.Close()
	allocs := testing.AllocsPerRun(runs, func() {
		n, err := dst.RecvBatch(pkts, froms, 2*time.Second)
		if err != nil || n != 1 {
			t.Fatalf("n=%d err=%v", n, err)
		}
		dst.Recycle(pkts[0])
	})
	if allocs != 0 {
		t.Fatalf("RecvBatch allocates %.2f times per call, want 0", allocs)
	}
}

// TestUDPRecvBatchRestoresDeadline is the regression test for the stale
// drain deadline: RecvBatch's non-blocking drain arms an already-expired
// deadline on the shared socket, and before the fix it stayed armed, so a
// following blocking read returned ErrTimeout instantly instead of waiting.
// Both the portable drain and the kernel path's timed wait must hand the
// socket back with no deadline pending.
func TestUDPRecvBatchRestoresDeadline(t *testing.T) {
	for _, mode := range []UDPBatchMode{BatchPortable, BatchAuto} {
		t.Run(modeName(mode), func(t *testing.T) {
			src, dst := udpPairMode(t, BatchPortable, mode)
			to := dst.LocalAddr()
			// Queue a burst and drain it with a timed RecvBatch — the drain is
			// what leaves the expired deadline armed in the buggy version.
			for i := 0; i < 3; i++ {
				if err := src.SendTo([]byte{byte(i)}, to); err != nil {
					t.Fatal(err)
				}
			}
			pkts := make([][]byte, 8)
			froms := make([]Addr, 8)
			for got := 0; got < 3; {
				n, err := dst.RecvBatch(pkts, froms, 2*time.Second)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < n; i++ {
					dst.Recycle(pkts[i])
				}
				got += n
			}
			// A blocking read that sets no deadline of its own must wait for
			// this late packet; with a stale deadline it fails immediately.
			go func() {
				time.Sleep(150 * time.Millisecond)
				_ = src.SendTo([]byte("late"), to)
			}()
			type res struct {
				p   []byte
				err error
			}
			ch := make(chan res, 1)
			go func() {
				p, _, err := dst.readPooled()
				ch <- res{p, err}
			}()
			select {
			case r := <-ch:
				if r.err != nil {
					t.Fatalf("blocking read after drain: %v (stale deadline left armed)", r.err)
				}
				if string(r.p) != "late" {
					t.Fatalf("blocking read got %q, want the late packet", r.p)
				}
				dst.Recycle(r.p)
			case <-time.After(5 * time.Second):
				t.Fatal("blocking read never completed")
			}
		})
	}
}

// BenchmarkUDPSendBatch measures the batched UDP send path over loopback at
// each fallback tier. The receiver drains in a goroutine so the socket
// queue never saturates; run with -benchmem — steady state is 0 allocs/op
// on the kernel tiers.
func BenchmarkUDPSendBatch(b *testing.B) {
	for _, mode := range tiers {
		for _, burst := range []int{8, 32} {
			b.Run(fmt.Sprintf("%s/burst=%d", modeName(mode), burst), func(b *testing.B) {
				src, dst := udpPairMode(b, mode, BatchAuto)
				msg := bytes.Repeat([]byte{5}, 1024)
				pkts := make([][]byte, burst)
				for i := range pkts {
					pkts[i] = msg
				}
				to := dst.LocalAddr()
				stop := make(chan struct{})
				done := make(chan struct{})
				go func() {
					defer close(done)
					rp := make([][]byte, 64)
					rf := make([]Addr, 64)
					for {
						select {
						case <-stop:
							return
						default:
						}
						n, err := dst.RecvBatch(rp, rf, 100*time.Millisecond)
						if err != nil {
							continue // ErrTimeout while the sender warms up
						}
						for i := 0; i < n; i++ {
							dst.Recycle(rp[i])
						}
					}
				}()
				b.SetBytes(int64(len(msg)))
				b.ResetTimer()
				n := 0
				for n < b.N {
					k, err := src.SendBatch(pkts, to)
					if err != nil {
						b.Fatal(err)
					}
					n += k
				}
				b.StopTimer()
				close(stop)
				<-done
			})
		}
	}
}

// TestUDPRecvBatchStagesWhatTheSocketDelivers pins the adaptive arm width:
// a caller with room for 32 on a socket that delivers one datagram per
// wakeup must not draw 32 pool buffers and put 31 back on every call — the
// per-call staging that doubled set-up time and raised idle latency for any
// layer polling with a wide RecvBatch. A lone datagram costs at most two
// pool gets, from the first call on; a steady 16-datagram burst is taken in
// at most two syscalls once the width has followed it; and nothing staged
// stays out of the pool past Close. It runs at GOMAXPROCS=1 so the sender's
// engine has put a whole burst on the socket before the receiver runs: with
// a second processor the receive would race the engine's sends.
func TestUDPRecvBatchStagesWhatTheSocketDelivers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, mode := range []UDPBatchMode{BatchMmsg, BatchAuto} {
		t.Run(modeName(mode), func(t *testing.T) {
			src, dst := udpPairMode(t, BatchPortable, mode)
			if !dst.BatchFeatures().Recvmmsg {
				t.Skipf("kernel without recvmmsg (features %v)", dst.BatchFeatures())
			}
			to := dst.LocalAddr()
			pkts := make([][]byte, 32)
			froms := make([]Addr, 32)
			gets := func() int64 { h, m := dst.pool.Stats(); return h + m }

			for i := 0; i < 8; i++ {
				if err := src.SendTo([]byte{byte(i)}, to); err != nil {
					t.Fatal(err)
				}
				before := gets()
				n, err := dst.RecvBatch(pkts, froms, 2*time.Second)
				if err != nil || n != 1 || pkts[0][0] != byte(i) {
					t.Fatalf("lone datagram %d: n=%d err=%v", i, n, err)
				}
				if d := gets() - before; d > 2 {
					t.Fatalf("lone datagram %d drew %d buffers from the pool, want ≤ 2", i, d)
				}
				dst.Recycle(pkts[0])
			}

			const burst = 16
			msg := bytes.Repeat([]byte{5}, 300)
			calls := 0
			for round := 0; round < 8; round++ {
				for i := 0; i < burst; i++ {
					msg[0] = byte(round*burst + i) // unequal to the last round's: GRO must not fuse rounds
					if err := src.SendTo(msg, to); err != nil {
						t.Fatal(err)
					}
				}
				calls = 0
				for got := 0; got < burst; calls++ {
					n, err := dst.RecvBatch(pkts, froms, 2*time.Second)
					if err != nil {
						t.Fatal(err)
					}
					for i := 0; i < n; i++ {
						if want := byte(round*burst + got + i); pkts[i][0] != want {
							t.Fatalf("round %d: datagram %d out of order (%d)", round, got+i, pkts[i][0])
						}
						dst.Recycle(pkts[i])
					}
					got += n
				}
			}
			if calls > 2 {
				t.Fatalf("a %d-datagram burst took %d syscalls after warm-up, want ≤ 2", burst, calls)
			}

			if err := dst.Close(); err != nil {
				t.Fatal(err)
			}
			if out := dst.pool.Outstanding(); out != 0 {
				t.Fatalf("%d receive buffers still staged after Close", out)
			}
		})
	}
}

package msg

import (
	"fmt"
	"net/netip"
	"testing"
	"time"

	"repro/internal/simnet"
	"repro/internal/transport"
)

// discardEP sinks every send and blocks receives: it isolates the eager
// send path's own cost from any wire below it.
type discardEP struct{ done chan struct{} }

func newDiscardEP() *discardEP { return &discardEP{done: make(chan struct{})} }

func (d *discardEP) SendTo(p []byte, to transport.Addr) error { return nil }

func (d *discardEP) SendBatch(pkts [][]byte, to transport.Addr) (int, error) {
	return len(pkts), nil
}

func (d *discardEP) Recv(timeout time.Duration) ([]byte, transport.Addr, error) {
	_, err := d.RecvBatch(nil, nil, timeout)
	return nil, transport.Addr{}, err
}

func (d *discardEP) RecvBatch(_ [][]byte, _ []transport.Addr, timeout time.Duration) (int, error) {
	if timeout <= 0 || timeout > 10*time.Millisecond {
		timeout = 10 * time.Millisecond
	}
	select {
	case <-d.done:
		return 0, transport.ErrClosed
	case <-time.After(timeout):
		return 0, transport.ErrTimeout
	}
}

func (d *discardEP) Recycle([]byte)                {}
func (d *discardEP) RecvPoolStats() (int64, int64) { return 0, 0 }

func (d *discardEP) LocalAddr() transport.Addr { return netip.MustParseAddrPort("10.0.0.1:1") }
func (d *discardEP) MaxDatagram() int          { return transport.MaxDatagramSize }
func (d *discardEP) PathMTU() int              { return transport.DefaultMTU }
func (d *discardEP) Close() error              { close(d.done); return nil }

// TestEagerSendAllocFree pins the eager fast path at zero allocations per
// send once the pools are warm: header staging, the gather vector, credit
// reservation, and the QP's segmented send must all recycle.
func TestEagerSendAllocFree(t *testing.T) {
	e, err := Open(newDiscardEP(), Config{
		EagerCredits: 1 << 30, // never stall against the discard sink
		RecvDepth:    4,
		Handler:      func(Message) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	to := netip.MustParseAddrPort("10.0.0.2:2")
	payload := make([]byte, 4096)
	for i := 0; i < 8; i++ { // warm hdr/vec/segment pools
		if err := e.Send(to, payload); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := e.Send(to, payload); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("eager send allocates %.2f times per message, want 0", allocs)
	}
}

// TestHeaderCodecAllocFree pins the wire codec itself.
func TestHeaderCodecAllocFree(t *testing.T) {
	buf := make([]byte, 0, HeaderLen)
	h := Header{Type: TypeEager, MsgID: 1, Grant: 2, Length: 4096}
	allocs := testing.AllocsPerRun(1000, func() {
		b := appendHeader(buf, &h)
		g, err := parseHeader(b)
		if err != nil || g.Length != 4096 {
			t.Fatal("codec broke under alloc test")
		}
	})
	if allocs != 0 {
		t.Fatalf("header codec allocates %.2f times per op, want 0", allocs)
	}
}

// benchPair opens two endpoints on a loopback simnet with a delivery
// notification channel.
func benchPair(b *testing.B, threshold, recvDepth int) (*Endpoint, *Endpoint, chan int) {
	b.Helper()
	net := simnet.New(simnet.Config{})
	epA, err := net.OpenDatagram("a", 1)
	if err != nil {
		b.Fatal(err)
	}
	epB, err := net.OpenDatagram("b", 1)
	if err != nil {
		b.Fatal(err)
	}
	got := make(chan int, 1024)
	cfg := Config{EagerThreshold: threshold, RecvDepth: recvDepth, Handler: func(m Message) {
		n := len(m.Data)
		m.Release()
		got <- n
	}}
	dst, err := Open(epB, cfg)
	if err != nil {
		b.Fatal(err)
	}
	cfg.Handler = func(m Message) { m.Release() }
	src, err := Open(epA, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { src.Close(); dst.Close() })
	return src, dst, got
}

// BenchmarkMsgSend sweeps message size for both forced datapaths over a
// loopback simnet — the crossover table EXPERIMENTS.md records. Eager is
// forced with threshold=size, rendezvous with threshold=size-1.
func BenchmarkMsgSend(b *testing.B) {
	sizes := []int{1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20}
	for _, size := range sizes {
		payload := make([]byte, size)
		for _, mode := range []string{"eager", "rdv"} {
			threshold := size
			recvDepth := 64
			if mode == "rdv" {
				threshold = size - 1
			}
			b.Run(fmt.Sprintf("%s/%d", mode, size), func(b *testing.B) {
				src, dst, got := benchPair(b, threshold, recvDepth)
				to := dst.LocalAddr()
				b.SetBytes(int64(size))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := src.Send(to, payload); err != nil {
						b.Fatal(err)
					}
					<-got
				}
			})
		}
	}
}

package transport_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"testing"
	"time"

	"repro/internal/faultnet"
	"repro/internal/pcap"
	"repro/internal/rudp"
	"repro/internal/simnet"
	"repro/internal/transport"
)

// seam is one way to stand up a connected pair of transport.Datagram
// endpoints. Assigning to the interface is itself the compile-time half of
// the contract: every LLP and every decorator carries the whole seam.
// allocFree seams must also send without allocating.
type seam struct {
	name      string
	open      func(t *testing.T) (a, b transport.Datagram)
	allocFree bool
}

func simPair(t *testing.T) (a, b *simnet.DatagramEndpoint) {
	t.Helper()
	n := simnet.New(simnet.Config{})
	a, err := n.OpenDatagram("a", 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err = n.OpenDatagram("b", 0)
	if err != nil {
		t.Fatal(err)
	}
	return a, b
}

func udpSeam(host string, mode transport.UDPBatchMode) func(*testing.T) (a, b transport.Datagram) {
	return func(t *testing.T) (transport.Datagram, transport.Datagram) {
		a, err := transport.ListenUDPMode(host, 0, mode)
		if err != nil {
			t.Skipf("no UDP on %s: %v", host, err)
		}
		b, err := transport.ListenUDPMode(host, 0, mode)
		if err != nil {
			a.Close()
			t.Fatal(err)
		}
		return a, b
	}
}

var seams = []seam{
	{"simnet", func(t *testing.T) (transport.Datagram, transport.Datagram) {
		a, b := simPair(t)
		return a, b
	}, false},
	{"udp-auto", udpSeam("127.0.0.1", transport.BatchAuto), true},
	{"udp-mmsg", udpSeam("127.0.0.1", transport.BatchMmsg), true},
	{"udp-portable", udpSeam("127.0.0.1", transport.BatchPortable), true},
	{"udp-ipv6", udpSeam("::1", transport.BatchAuto), true},
	{"rudp", func(t *testing.T) (transport.Datagram, transport.Datagram) {
		a, b := simPair(t)
		return rudp.New(a), rudp.New(b)
	}, false},
	{"faultnet", func(t *testing.T) (transport.Datagram, transport.Datagram) {
		a, b := simPair(t)
		return faultnet.Wrap(a, faultnet.Config{}), faultnet.Wrap(b, faultnet.Config{})
	}, false},
	{"pcap-tap", func(t *testing.T) (transport.Datagram, transport.Datagram) {
		a, b := simPair(t)
		pw, err := pcap.NewWriter(io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		return pcap.TapDatagram(a, pw), pcap.TapDatagram(b, pw)
	}, false},
}

// wait bounds every receive the contract expects to succeed; a call that
// waited anywhere near it was waiting for something it should not have.
const wait = 5 * time.Second

// TestDatagramContract runs the one Datagram contract over every
// implementation of it: what DDP, rudp and the decorators rely on without
// asking which LLP they were handed.
func TestDatagramContract(t *testing.T) {
	for _, s := range seams {
		t.Run(s.name, func(t *testing.T) {
			a, b := s.open(t)
			defer a.Close()
			to := b.LocalAddr()
			pkts := make([][]byte, 8)
			froms := make([]transport.Addr, 8)

			// Nothing sent: a bounded wait times out, by either entry point,
			// and zero-width slices return at once.
			if n, err := b.RecvBatch(pkts, froms, 20*time.Millisecond); n != 0 || !errors.Is(err, transport.ErrTimeout) {
				t.Fatalf("RecvBatch on an idle endpoint = %d, %v; want 0, ErrTimeout", n, err)
			}
			if _, _, err := b.Recv(20 * time.Millisecond); !errors.Is(err, transport.ErrTimeout) {
				t.Fatalf("Recv on an idle endpoint: %v; want ErrTimeout", err)
			}
			if n, err := b.RecvBatch(nil, nil, wait); n != 0 || err != nil {
				t.Fatalf("zero-width RecvBatch = %d, %v; want 0, nil", n, err)
			}

			// A burst of five into room for eight: every datagram arrives
			// intact and in order from a's address, each call returns at
			// least one, and no call waits for the room to fill. The sender's
			// buffers are scribbled over the moment SendBatch returns: the
			// LLP must not have retained them.
			var burst, want [][]byte
			for i := 0; i < 5; i++ {
				p := bytes.Repeat([]byte{byte('a' + i)}, 100+i)
				burst, want = append(burst, p), append(want, bytes.Clone(p))
			}
			if n, err := a.SendBatch(burst, to); n != len(burst) || err != nil {
				t.Fatalf("SendBatch = %d, %v; want %d, nil", n, err, len(burst))
			}
			for _, p := range burst {
				clear(p)
			}
			start := time.Now()
			for got := 0; got < len(want); {
				n, err := b.RecvBatch(pkts, froms, wait)
				if err != nil || n < 1 {
					t.Fatalf("RecvBatch after %d of %d = %d, %v; want n ≥ 1, nil", got, len(want), n, err)
				}
				for i := 0; i < n; i++ {
					if !bytes.Equal(pkts[i], want[got]) {
						t.Fatalf("datagram %d = %q, want %q", got, pkts[i], want[got])
					}
					if froms[i] != a.LocalAddr() {
						t.Fatalf("datagram %d from %v, want %v", got, froms[i], a.LocalAddr())
					}
					b.Recycle(pkts[i])
					got++
				}
			}
			if el := time.Since(start); el > wait/2 {
				t.Fatalf("draining a queued burst took %v: a call waited for the batch to fill", el)
			}

			// The single-datagram calls are the burst calls at width one.
			one := []byte("SendTo to RecvBatch")
			if err := a.SendTo(one, to); err != nil {
				t.Fatal(err)
			}
			if n, err := b.RecvBatch(pkts[:1], froms[:1], wait); n != 1 || err != nil || !bytes.Equal(pkts[0], one) {
				t.Fatalf("RecvBatch of one = %d, %v, %q", n, err, pkts[0])
			}
			b.Recycle(pkts[0])
			one = []byte("SendBatch to Recv")
			if n, err := a.SendBatch([][]byte{one}, to); n != 1 || err != nil {
				t.Fatalf("SendBatch of one = %d, %v", n, err)
			}
			p, from, err := b.Recv(wait)
			if err != nil || !bytes.Equal(p, one) || from != a.LocalAddr() {
				t.Fatalf("Recv = %q, %v, %v", p, from, err)
			}

			// An address is a value: the reported source is the sender's
			// own LocalAddr, and a reply sent to it arrives back, from b.
			reply := []byte("reply to the reported source")
			if err := b.SendTo(reply, from); err != nil {
				t.Fatalf("reply to %v: %v", from, err)
			}
			r, rfrom, err := a.Recv(wait)
			if err != nil || !bytes.Equal(r, reply) || rfrom != to {
				t.Fatalf("reply = %q from %v, %v; want %q from %v", r, rfrom, err, reply, to)
			}
			a.Recycle(r)

			// Recycle takes back what was received and shrugs off what was
			// not; the pool counters only ever grow.
			h0, m0 := b.RecvPoolStats()
			b.Recycle(p)
			b.Recycle(nil)
			b.Recycle(make([]byte, 10))
			b.Recycle(make([]byte, 0, 1<<20))
			for i := 0; i < 3; i++ {
				msg := []byte(fmt.Sprintf("after foreign recycle %d", i))
				if err := a.SendTo(msg, to); err != nil {
					t.Fatal(err)
				}
				p, _, err := b.Recv(wait)
				if err != nil || !bytes.Equal(p, msg) {
					t.Fatalf("Recv after foreign Recycle = %q, %v", p, err)
				}
				b.Recycle(p)
			}
			if h1, m1 := b.RecvPoolStats(); h1 < h0 || m1 < m0 {
				t.Fatalf("RecvPoolStats went backwards: %d/%d -> %d/%d", h0, m0, h1, m1)
			}

			// A recycled buffer is reused: a steady send → receive → Recycle
			// loop is served from buffers that came back, and RecvPoolStats
			// shows the hits — through every decorator, and through rudp,
			// whose delivered payloads are the endpoint-below's own buffers.
			// (1 KiB: large enough that no layer copies it out of its receive
			// buffer. Misses are not bounded: simnet's sync.Pool keeps a
			// per-P slot another P cannot see.)
			kib := bytes.Repeat([]byte{0x5a}, 1024)
			h0, m0 = b.RecvPoolStats()
			const rounds = 64
			for i := 0; i < rounds; i++ {
				if err := a.SendTo(kib, to); err != nil {
					t.Fatal(err)
				}
				p, _, err := b.Recv(wait)
				if err != nil || !bytes.Equal(p, kib) {
					t.Fatalf("round %d: %d bytes, %v", i, len(p), err)
				}
				b.Recycle(p)
			}
			if h1, m1 := b.RecvPoolStats(); h1-h0 < rounds/2 {
				t.Fatalf("%d recycled receives: %d pool hits, %d misses; recycled buffers are not being reused", rounds, h1-h0, m1-m0)
			}

			// Sending costs no allocation where the seam promises it: no
			// per-call parsing, resolution or rendering of the destination.
			// What it sent is drained again before the close check below.
			if s.allocFree {
				burst := [][]byte{kib, kib, kib, kib}
				if n := testing.AllocsPerRun(50, func() { a.SendTo(kib, to) }); n != 0 {
					t.Errorf("SendTo allocates %.1f times per call, want 0", n)
				}
				if n := testing.AllocsPerRun(50, func() { a.SendBatch(burst, to) }); n != 0 {
					t.Errorf("SendBatch allocates %.1f times per burst, want 0", n)
				}
				for {
					n, err := b.RecvBatch(pkts, froms, 50*time.Millisecond)
					if err != nil {
						break
					}
					for _, p := range pkts[:n] {
						b.Recycle(p)
					}
				}
			}

			// Close wakes a blocked receive with ErrClosed, and later
			// receives say the same.
			errc := make(chan error, 1)
			go func() {
				_, err := b.RecvBatch(pkts, froms, 0)
				errc <- err
			}()
			time.Sleep(10 * time.Millisecond) // let it park; either order must hold
			if err := b.Close(); err != nil {
				t.Fatal(err)
			}
			select {
			case err := <-errc:
				if !errors.Is(err, transport.ErrClosed) {
					t.Fatalf("RecvBatch across Close: %v; want ErrClosed", err)
				}
			case <-time.After(wait):
				t.Fatal("Close did not wake a blocked RecvBatch")
			}
			if _, _, err := b.Recv(wait); !errors.Is(err, transport.ErrClosed) {
				t.Fatalf("Recv after Close: %v; want ErrClosed", err)
			}
		})
	}
}

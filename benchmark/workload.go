package main

import (
	"encoding/binary"
	"math/rand"

	"repro/internal/msg"
)

// workload is one closed-loop traffic shape: one sender goroutine keeps
// window messages outstanding toward one receiver, message i having size
// sizes[i%len(sizes)]. The flags pick the stack the messages cross; the
// ladder (see rungs) is that stack cut one seam at a time.
type workload struct {
	name     string
	why      string
	sizes    []int
	window   int     // multiple of len(sizes), so a slot's size is fixed
	reliable bool    // rudp between the wire and ddp (RD service)
	udp      bool    // kernel UDP on 127.0.0.1 in place of simnet
	loss     float64 // simnet per-fragment loss probability
	top      string  // topmost layer: "core", "msg" or "sockif"
	// lossProbe adds an ungated rudp rung at 0.1% loss to the traced run.
	lossProbe bool
}

const (
	kib = 1 << 10
	mib = 1 << 20
)

var workloads = []workload{
	{
		name: "ud_send_1k", sizes: []int{kib}, window: 64, top: "core",
		why: "UD Send/Recv 1 KiB on lossless simnet: per-packet cost of simnet+ddp+core; bypasses rudp, msg, sockif (the no-change control for RD work)",
	},
	{
		name: "rd_send_1k", sizes: []int{kib}, window: 64, reliable: true, top: "core", lossProbe: true,
		why: "the same traffic through Reliable (rudp): rudp does most of the work; with ud_send_1k it is the RD-within-2x-of-UD gate",
	},
	{
		name: "ud_wr_1m_loss", sizes: []int{mib}, window: 8, loss: 0.01, top: "core",
		why: "UD Write-Record 1 MiB at 1% fragment loss: per-byte cost, validity maps and partial placement (paper Figures 7/8)",
	},
	{
		name: "msg_mix_rd", sizes: []int{4 * kib, 4 * kib, 4 * kib, 4 * kib, 4 * kib, 4 * kib, 4 * kib, mib}, window: 16, reliable: true, top: "msg",
		why: "msg layer over RD: 7 eager 4 KiB + 1 rendezvous 1 MiB repeating; credits, RTS/CTS, sink registration, rudp used per byte",
	},
	{
		name: "sock_rd_1k_udp", sizes: []int{kib}, window: 16, reliable: true, udp: true, top: "sockif",
		why: "sockif RD datagram sockets 1 KiB over kernel UDP loopback: the socket path, the only one where syscalls and sendmmsg/GSO/GRO show",
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// rungs lists the layers the workload's messages cross, bottom up. The
// traced run rebuilds the stack once per entry, topped at that layer.
func (w workload) rungs() []string {
	r := []string{"simnet"}
	if w.udp {
		r[0] = "transport"
	}
	if w.reliable {
		r = append(r, "rudp")
	}
	r = append(r, "ddp", "core")
	if w.top != "core" {
		r = append(r, w.top)
	}
	return r
}

// tagged reports whether a message of n bytes travels as a one-sided tagged
// write at the rungs that distinguish (ddp, core): everything above the msg
// layer's eager threshold, which is also how msg itself decides.
func tagged(n int) bool { return n > msg.DefaultEagerThreshold }

func (w workload) lossy() bool { return w.loss > 0 }

func (w workload) meanSize() int {
	sum := 0
	for _, n := range w.sizes {
		sum += n
	}
	return sum / len(w.sizes)
}

// seqLen is the sequence-number prefix every message carries; the rest of
// the payload is the slot's seeded pattern.
const seqLen = 8

// slots holds the window's source payloads. Message i is sent from slot
// i%window: bytes [0,seqLen) are rewritten with i before each post, the rest
// is a seeded pattern of nonzero bytes fixed at start — so a receiver can
// check any byte range against the slot, and a range a cleared sink reports
// valid but that was never written cannot compare equal. A slot is rewritten
// only after its previous message's credit came back, so the receiver never
// compares against a moving source.
type slots [][]byte

func newSlots(w workload, seed int64) slots {
	rng := rand.New(rand.NewSource(seed))
	s := make(slots, w.window)
	for i := range s {
		b := make([]byte, w.sizes[i%len(w.sizes)])
		rng.Read(b)
		for j := range b {
			if b[j] == 0 {
				b[j] = byte(1 + j%255)
			}
		}
		s[i] = b
	}
	return s
}

// stamp writes seq into the slot's header and returns the payload to post.
func (s slots) stamp(seq uint64) []byte {
	b := s[seq%uint64(len(s))]
	binary.BigEndian.PutUint64(b, seq)
	return b
}

func (s slots) of(seq uint64) []byte { return s[seq%uint64(len(s))] }

// seqOf reads the sequence number a received payload carries.
func seqOf(p []byte) uint64 { return binary.BigEndian.Uint64(p) }

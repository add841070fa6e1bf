// Package simnet is an in-process network simulator providing the datagram
// and stream LLPs the iWARP stack runs over in tests and benchmarks.
//
// It stands in for the paper's experimental apparatus: two Opteron hosts on
// a 10-Gigabit Ethernet switch, with packet loss injected by a Linux traffic
// control FIFO queue "configured to drop packets at a defined rate"
// (§VI.A.2). The simulator reproduces the properties that shape the paper's
// results:
//
//   - a wire MTU (default 1500 B): datagrams larger than the MTU are
//     IP-fragmented, and loss of ANY fragment destroys the whole datagram —
//     the cliff in Figures 7 and 8;
//   - a 64 KB maximum datagram: messages beyond it need several datagrams,
//     which is where Write-Record's partial placement starts to win;
//   - independent Bernoulli loss per fragment at a configurable rate
//     (datagram mode only — streams are reliable and ordered, like TCP);
//   - an optional one-way latency;
//   - bounded receive queues with sender backpressure, like loopback socket
//     buffers.
//
// That is the whole wire model: topology, MTU and fragmentation, latency
// and queues. Every other impairment — reordering, duplication, corruption,
// congestion marks, partitions — is faultnet's, wrapped around an endpoint.
//
// Endpoints are named by node: a node name that parses as an IP address is
// that address, and any other name is given the next free address in
// 10.0.0.0/8 in first-use order, so a run's addresses are deterministic and
// every endpoint's transport.Addr is a real socket address.
//
// All randomness is drawn from a single seeded source, so every experiment
// is reproducible.
package simnet

import (
	"fmt"
	"math/rand"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
	"repro/internal/transport"
)

// Config parameterises a simulated network. Zero values select defaults.
type Config struct {
	// MTU is the wire MTU in bytes (default transport.DefaultMTU).
	MTU int
	// MaxDatagram is the largest datagram payload (default 65507, UDP's).
	MaxDatagram int
	// LossRate is the per-fragment drop probability in [0, 1).
	LossRate float64
	// Latency is an optional one-way delivery delay.
	Latency time.Duration
	// QueueLen bounds each endpoint's receive queue in packets
	// (default 4096).
	QueueLen int
	// StreamBufSize sets each direction's stream buffering in bytes
	// (default DefaultStreamBufSize) — the simulated SO_SNDBUF/SO_RCVBUF.
	StreamBufSize int
	// Seed seeds the loss RNG (default 1).
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.MTU == 0 {
		c.MTU = transport.DefaultMTU
	}
	if c.MaxDatagram == 0 {
		c.MaxDatagram = transport.MaxDatagramSize
	}
	if c.QueueLen == 0 {
		c.QueueLen = 4096
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Counters exposes the simulator's traffic statistics. Losses are split by
// cause — Bernoulli wire loss, latency-stranded deliveries (the destination
// closed while the packet was in flight), and multicast-leg drops — with
// DatagramsLost their sum, so experiments can attribute loss instead of
// guessing.
type Counters struct {
	DatagramsSent int64
	DatagramsLost int64
	LostLoss      int64 // Bernoulli wire loss (unicast legs)
	LostLatency   int64 // latency-delayed packet found its destination closed
	LostMcast     int64 // multicast legs lost (wire loss or closed member)
	FragmentsSent int64
	BytesSent     int64
}

// Network is a simulated network segment. All endpoints opened on it can
// exchange traffic; the Config's loss and latency apply to datagram
// traffic.
type Network struct {
	cfg Config

	rngMu sync.Mutex
	rng   *rand.Rand

	lossMicro atomic.Int64 // LossRate * 1e6, runtime-adjustable

	mu        sync.Mutex
	dgram     map[transport.Addr]*DatagramEndpoint
	listeners map[transport.Addr]*listener
	nextPort  map[netip.Addr]uint16
	names     map[string]netip.Addr // interned node names
	hosts     map[netip.Addr]bool   // every address a node holds
	lastHost  uint32                // last 10.0.0.0/8 host number handed out

	mcastOnce   sync.Once
	mcastGroups *mcastState

	// Traffic counters are telemetry-registry handles (DESIGN.md §4.6),
	// with loss accounted per cause.
	sent, frags, bytes               *telemetry.Counter
	lostLoss, lostLatency, lostMcast *telemetry.Counter
}

// New creates a network with the given configuration.
func New(cfg Config) *Network {
	cfg = cfg.withDefaults()
	n := &Network{
		cfg:       cfg,
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		dgram:     make(map[transport.Addr]*DatagramEndpoint),
		listeners: make(map[transport.Addr]*listener),
		nextPort:  make(map[netip.Addr]uint16),
		names:     make(map[string]netip.Addr),
		hosts:     make(map[netip.Addr]bool),
	}
	n.lossMicro.Store(int64(cfg.LossRate * 1e6))
	n.sent = telemetry.Default.Counter("diwarp_simnet_datagrams_sent_total")
	n.frags = telemetry.Default.Counter("diwarp_simnet_fragments_total")
	n.bytes = telemetry.Default.Counter("diwarp_simnet_bytes_sent_total")
	n.lostLoss = telemetry.Default.Counter("diwarp_simnet_drop_loss_total")
	n.lostLatency = telemetry.Default.Counter("diwarp_simnet_drop_latency_total")
	n.lostMcast = telemetry.Default.Counter("diwarp_simnet_drop_mcast_total")
	return n
}

// SetLossRate changes the per-fragment loss probability at runtime; the
// benchmark harness sweeps it the way the paper swept tc/netem rates.
func (n *Network) SetLossRate(p float64) { n.lossMicro.Store(int64(p * 1e6)) }

// Counters returns a snapshot of traffic statistics.
func (n *Network) Counters() Counters {
	loss, lat, mc := n.lostLoss.Load(), n.lostLatency.Load(), n.lostMcast.Load()
	return Counters{
		DatagramsSent: n.sent.Load(),
		DatagramsLost: loss + lat + mc,
		LostLoss:      loss,
		LostLatency:   lat,
		LostMcast:     mc,
		FragmentsSent: n.frags.Load(),
		BytesSent:     n.bytes.Load(),
	}
}

// MTU returns the configured wire MTU.
func (n *Network) MTU() int { return n.cfg.MTU }

// chance draws a Bernoulli sample with probability micro/1e6.
func (n *Network) chance(micro int64) bool {
	if micro <= 0 {
		return false
	}
	n.rngMu.Lock()
	v := n.rng.Int63n(1e6)
	n.rngMu.Unlock()
	return v < micro
}

// host interns a node name; the caller holds mu. A name that parses as an
// IP address is that address; any other name is given the next address in
// 10.0.0.0/8 that no node holds yet, in first-use order.
func (n *Network) host(node string) netip.Addr {
	if ip, err := netip.ParseAddr(node); err == nil {
		ip = ip.Unmap()
		n.hosts[ip] = true
		return ip
	}
	if ip, ok := n.names[node]; ok {
		return ip
	}
	for {
		n.lastHost++
		ip := netip.AddrFrom4([4]byte{10, byte(n.lastHost >> 16), byte(n.lastHost >> 8), byte(n.lastHost)})
		if !n.hosts[ip] {
			n.names[node] = ip
			n.hosts[ip] = true
			return ip
		}
	}
}

// bind returns node's address on port, allocating a free ephemeral port
// for port 0; the caller holds mu.
func (n *Network) bind(node string, port uint16) transport.Addr {
	ip := n.host(node)
	if port != 0 {
		return netip.AddrPortFrom(ip, port)
	}
	p, ok := n.nextPort[ip]
	if !ok {
		p = 49152
	}
	for {
		p++
		if p == 0 {
			p = 49153
		}
		a := netip.AddrPortFrom(ip, p)
		if _, used := n.dgram[a]; used {
			continue
		}
		if _, used := n.listeners[a]; used {
			continue
		}
		n.nextPort[ip] = p
		return a
	}
}

// fragPayload is the usable payload per wire fragment: MTU minus the 20-byte
// IP header and 8-byte UDP header.
func (n *Network) fragPayload() int { return n.cfg.MTU - 28 }

// fragments returns how many wire fragments a datagram of size sz needs.
func (n *Network) fragments(sz int) int {
	fp := n.fragPayload()
	if sz <= fp {
		return 1
	}
	return (sz + fp - 1) / fp
}

// OpenDatagram binds a datagram endpoint on node (port 0 auto-allocates).
func (n *Network) OpenDatagram(node string, port uint16) (*DatagramEndpoint, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	addr := n.bind(node, port)
	if _, used := n.dgram[addr]; used {
		return nil, fmt.Errorf("simnet: address %s already bound", addr)
	}
	ep := &DatagramEndpoint{
		net:  n,
		addr: addr,
		q:    newQueue(n.cfg.QueueLen),
	}
	n.dgram[addr] = ep
	return ep, nil
}

func (n *Network) lookupDatagram(addr transport.Addr) (*DatagramEndpoint, bool) {
	n.mu.Lock()
	ep, ok := n.dgram[addr]
	n.mu.Unlock()
	return ep, ok
}

func (n *Network) dropDatagram(addr transport.Addr) {
	n.mu.Lock()
	delete(n.dgram, addr)
	n.mu.Unlock()
}

// DatagramEndpoint is a simulated UDP socket.
type DatagramEndpoint struct {
	net  *Network
	addr transport.Addr
	q    *queue
}

var _ transport.Datagram = (*DatagramEndpoint)(nil)

// SendTo implements transport.Datagram: a burst of one.
func (e *DatagramEndpoint) SendTo(p []byte, to transport.Addr) error {
	one := [1][]byte{p}
	_, err := e.SendBatch(one[:], to)
	return err
}

// SendBatch implements transport.Datagram. Every datagram of the burst runs
// the wire model on its own (transmit); what survives is copied into pooled
// packet buffers and enqueued at the destination under a single queue lock
// — the simulated analogue of a sendmmsg burst. It blocks only when the
// destination queue is full (socket-buffer backpressure). A group address
// fans the burst out to every member but the sender (IP_MULTICAST_LOOP off,
// the streaming-server configuration), each leg meeting the wire model
// independently; multicast is unreliable per member, so a member that went
// away is a counted drop, not an error.
func (e *DatagramEndpoint) SendBatch(pkts [][]byte, to transport.Addr) (int, error) {
	nw := e.net
	for _, p := range pkts {
		if len(p) > nw.cfg.MaxDatagram {
			return 0, transport.ErrTooLarge
		}
	}
	if to.Addr().IsMulticast() {
		for _, dst := range nw.members(to) {
			if dst != e {
				e.sendLeg(dst, pkts, true) //diwarp:ignore errflow: a multicast leg cannot fail: deliver counts a departed member as a drop
			}
		}
		return len(pkts), nil
	}
	dst, ok := nw.lookupDatagram(to)
	if !ok {
		return 0, fmt.Errorf("%w: %s", transport.ErrNoRoute, to)
	}
	return e.sendLeg(dst, pkts, false)
}

// wireScratch recycles the []packet staging slices sendLeg collects a
// burst's survivors in, keeping the send path allocation-free. Its width
// bounds one enqueue; wider bursts are enqueued in several.
var wireScratch = sync.Pool{New: func() any {
	s := make([]packet, 0, 64)
	return &s
}}

// sendLeg carries a burst over one leg to dst and returns how many of its
// datagrams were handed to the network before dst went away (counted in
// whole enqueues: the datagrams of a failed one are not reported sent).
func (e *DatagramEndpoint) sendLeg(dst *DatagramEndpoint, pkts [][]byte, mcast bool) (int, error) {
	nw := e.net
	sp := wireScratch.Get().(*[]packet)
	wire := (*sp)[:0]
	sent := 0
	var err error
	for i, p := range pkts {
		wire = nw.transmit(wire, p, e.addr, dst.addr, mcast)
		if i+1 < len(pkts) && len(wire) < cap(wire) {
			continue
		}
		err = nw.deliver(dst, wire, mcast)
		clear(wire) // drop the payload references: the queue owns them now
		wire = wire[:0]
		if err != nil {
			break
		}
		sent = i + 1
	}
	wireScratch.Put(sp)
	return sent, err
}

// transmit runs one datagram over one leg of the wire and appends it to
// wire if it reaches the far end. This is the only place the loss model is
// drawn: SendTo, SendBatch and every multicast leg come through here.
func (n *Network) transmit(wire []packet, p []byte, from, to transport.Addr, mcast bool) []packet {
	n.sent.Inc()
	n.bytes.Add(int64(len(p)))
	k := n.fragments(len(p))
	n.frags.Add(int64(k))
	// Loss is per wire fragment; losing any fragment kills the datagram
	// because IP reassembly cannot complete.
	loss := n.lossMicro.Load()
	for i := 0; i < k; i++ {
		if n.chance(loss) {
			n.dropped(mcast, to, len(p))
			return wire // silently dropped, like a real lossy network
		}
	}
	// The far end gets the network's own copy: the caller's buffer is
	// never retained.
	buf := getPktBuf(len(p))
	copy(buf, p)
	return append(wire, packet{payload: buf, from: from})
}

// dropped accounts one datagram lost on a leg toward to, by cause.
func (n *Network) dropped(mcast bool, to transport.Addr, size int) {
	lost, cause := n.lostLoss, telemetry.DropLoss
	if mcast {
		lost, cause = n.lostMcast, telemetry.DropMcast
	}
	lost.Inc()
	telemetry.DefaultTrace.Record(telemetry.EvDrop, telemetry.PeerToken(to), size, cause)
}

// deliver enqueues wire at dst, after the configured latency if any. A
// destination that closed under a unicast send is ErrNoRoute; one that
// closed while a delayed packet was in flight, or under a multicast leg,
// is a counted drop — nobody is left to report it to.
func (n *Network) deliver(dst *DatagramEndpoint, wire []packet, mcast bool) error {
	if n.cfg.Latency > 0 {
		for _, pk := range wire {
			time.AfterFunc(n.cfg.Latency, func() {
				if _, err := dst.q.put([]packet{pk}); err != nil {
					n.lostLatency.Inc()
					telemetry.DefaultTrace.Record(telemetry.EvDrop, telemetry.PeerToken(dst.addr), len(pk.payload), telemetry.DropLatency)
				}
			})
		}
		return nil
	}
	enq, err := dst.q.put(wire)
	if err == nil {
		return nil
	}
	if mcast {
		for _, pk := range wire[enq:] {
			n.dropped(true, dst.addr, len(pk.payload))
		}
		return nil
	}
	return fmt.Errorf("%w: %s", transport.ErrNoRoute, dst.addr)
}

// Recv implements transport.Datagram: a burst of one.
func (e *DatagramEndpoint) Recv(timeout time.Duration) ([]byte, transport.Addr, error) {
	return e.q.getOne(timeout)
}

// RecvBatch implements transport.Datagram: one queue lock round-trip pops
// the whole burst — the simulated analogue of recvmmsg, and the
// receive-side mirror of SendBatch's single-lock put.
func (e *DatagramEndpoint) RecvBatch(pkts [][]byte, froms []transport.Addr, timeout time.Duration) (int, error) {
	return e.q.get(pkts, froms, timeout)
}

// RecvPoolStats implements transport.Datagram, reporting the simulator's
// shared packet-pool hit/miss counters.
func (e *DatagramEndpoint) RecvPoolStats() (hits, misses int64) { return pktBufStats() }

// LocalAddr implements transport.Datagram.
func (e *DatagramEndpoint) LocalAddr() transport.Addr { return e.addr }

// MaxDatagram implements transport.Datagram.
func (e *DatagramEndpoint) MaxDatagram() int { return e.net.cfg.MaxDatagram }

// PathMTU implements transport.Datagram.
func (e *DatagramEndpoint) PathMTU() int { return e.net.cfg.MTU }

// Recycle implements transport.Datagram: consumers hand fully-processed
// receive buffers back to the simulator's packet pools.
func (e *DatagramEndpoint) Recycle(p []byte) { putPktBuf(p) }

// Close implements transport.Datagram.
func (e *DatagramEndpoint) Close() error {
	e.net.dropDatagram(e.addr)
	e.q.close()
	return nil
}

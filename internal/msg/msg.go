// Endpoint: the message-layer engine. One Endpoint wraps one datagram QP
// and moves whole application messages — eager below the threshold,
// rendezvous above it — delivering each exactly once to the configured
// handler (over a Reliable LLP; best-effort otherwise). See the package
// comment in wire.go for the protocol overview and DESIGN.md §4.11 for the
// state machines.
package msg

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	iwarp "repro/internal/core"
	"repro/internal/memreg"
	"repro/internal/nio"
	"repro/internal/peertab"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// Tunables and their defaults.
const (
	// DefaultEagerThreshold is the eager/rendezvous crossover used when
	// Config.EagerThreshold is zero. 16 KiB sits in the crossover band the
	// paper's MPI ancestry reports (MPICH2 uses 16-64 KiB over RDMA
	// interconnects); `make tensorbench` measures the real one for this
	// stack and EXPERIMENTS.md records it.
	DefaultEagerThreshold = 16 << 10
	// DefaultEagerCredits is the per-peer eager window W: a sender may
	// have at most W eager messages outstanding beyond the receiver's
	// last cumulative grant.
	DefaultEagerCredits = 64
	// DefaultRecvDepth is the number of pre-posted receive buffers. It
	// must absorb the eager window plus control traffic for every active
	// peer: with defaults, 256 covers ~3 saturating peers.
	DefaultRecvDepth = 256
	// DefaultMaxRendezvous bounds concurrent outbound rendezvous
	// transfers per peer (each pins a sink buffer on the receiver).
	DefaultMaxRendezvous = 16
	// DefaultRendezvousTimeout bounds how long a sender waits for CTS and
	// how long a receiver retains a sink with no placement progress.
	DefaultRendezvousTimeout = 5 * time.Second
	// DefaultCreditTimeout bounds how long an eager send parks waiting
	// for credit before reclaiming one: over a lossy unreliable LLP a
	// grant datagram can vanish, and liveness beats window precision.
	DefaultCreditTimeout = time.Second
	// MaxMessageSize mirrors the verbs layer's 1 GiB untagged/tagged cap.
	MaxMessageSize = 1 << 30
)

// Message-layer errors.
var (
	// ErrClosed reports use of a closed endpoint.
	ErrClosed = errors.New("msg: endpoint closed")
	// ErrTooLarge reports a payload above MaxMessageSize.
	ErrTooLarge = errors.New("msg: message exceeds 1 GiB limit")
	// ErrRendezvousTimeout reports a rendezvous whose CTS never arrived:
	// the peer is gone, saturated, or the RTS/CTS was lost on an
	// unreliable LLP.
	ErrRendezvousTimeout = errors.New("msg: rendezvous timed out awaiting CTS")
	// ErrNilHandler reports an Open with no delivery callback.
	ErrNilHandler = errors.New("msg: Config.Handler must be set")
)

// Config parameterizes an Endpoint.
type Config struct {
	// EagerThreshold is the largest payload (bytes) sent eagerly. Zero
	// selects DefaultEagerThreshold. Both ends of a flow must agree: an
	// eager message larger than the receiver's threshold overflows its
	// posted receives and is dropped with an advisory completion.
	EagerThreshold int
	// EagerCredits is the per-peer eager window W (default 64).
	EagerCredits int
	// RecvDepth is the number of pre-posted receives (default 256).
	RecvDepth int
	// RendezvousTimeout bounds CTS waits and idle-sink retention
	// (default 5s).
	RendezvousTimeout time.Duration
	// CreditTimeout bounds a credit stall before reclaim (default 1s).
	CreditTimeout time.Duration
	// SweepInterval is the sink-sweeper period (default
	// RendezvousTimeout/2).
	SweepInterval time.Duration
	// Reliable declares the underlying transport a reliable LLP (rudp):
	// the QP blocks on receiver-not-ready instead of dropping, and the
	// layer guarantees exactly-once delivery.
	Reliable bool
	// Handler receives every delivered message, one at a time, on the
	// QP's receive goroutine. Until it returns nothing else arrives,
	// credits and CTSes included, so it must not block, and a handler
	// that replies should Send from another goroutine (DESIGN.md §4.11).
	// It owns m until m.Release().
	Handler func(m Message)
}

func (c Config) withDefaults() Config {
	if c.EagerThreshold == 0 {
		c.EagerThreshold = DefaultEagerThreshold
	}
	if c.EagerCredits == 0 {
		c.EagerCredits = DefaultEagerCredits
	}
	if c.RecvDepth == 0 {
		c.RecvDepth = DefaultRecvDepth
	}
	if c.RendezvousTimeout == 0 {
		c.RendezvousTimeout = DefaultRendezvousTimeout
	}
	if c.CreditTimeout == 0 {
		c.CreditTimeout = DefaultCreditTimeout
	}
	if c.SweepInterval == 0 {
		c.SweepInterval = c.RendezvousTimeout / 2
	}
	return c
}

// Message is one delivered application message. Data aliases an internal
// buffer (a pooled receive segment for eager, the registered sink for
// rendezvous): the handler owns it until Release, which must be called
// exactly once to return the buffer to its pool.
type Message struct {
	// From is the sender's datagram address.
	From transport.Addr
	// Data is the complete payload.
	Data []byte
	// Rendezvous reports which datapath carried the message.
	Rendezvous bool

	ep  *Endpoint
	buf []byte
}

// Release returns the message's buffer to the endpoint. Data must not be
// touched afterwards.
func (m *Message) Release() {
	if m.ep == nil {
		return
	}
	if m.Rendezvous {
		m.ep.sinks.put(m.buf)
	} else {
		m.ep.rxPool.Put(m.buf)
	}
	m.ep = nil
}

// Stats is a point-in-time snapshot of one endpoint's message counters
// (the process-wide diwarp_msg_* telemetry aggregates all endpoints).
type Stats struct {
	EagerSent, EagerRecv   int64
	RdvSent, RdvRecv       int64
	EagerBytes, RdvBytes   int64
	CreditStalls, RdvSwept int64
}

// peer is the per-remote-address protocol state: the sender-side credit
// ledger and rendezvous table for our sends to it, and the receiver-side
// grant ledger for its sends to us. It lives in-place as a peertab Entry's
// value; the ledger is all atomics, so the entry lock is never taken on the
// datapath — only pendMu (per-peer, rendezvous control plane) is a mutex.
type peer struct {
	// Sender side. Credit invariant: an eager send requires
	// sent - limit < 0 (int32 arithmetic, wrap-safe); limit advances to
	// grant+W as cumulative grants arrive.
	sent      atomic.Uint32
	limit     atomic.Uint32
	lastGrant atomic.Uint32
	creditCh  chan struct{} // pulsed (cap 1) when limit moves
	nextID    atomic.Uint32
	rdvSem    chan struct{} // cap DefaultMaxRendezvous
	pendMu    sync.Mutex
	pending   map[uint32]chan Header // MsgID -> CTS delivery

	// Receiver side: cumulative eager deliveries and the last grant we
	// told the peer about.
	consumed  atomic.Uint32
	grantSent atomic.Uint32
}

// tryReserve claims one eager credit if the window has room. Lock-free:
// this is the eager send fast path.
//
//diwarp:hotpath
func (p *peer) tryReserve() bool {
	for {
		s := p.sent.Load()
		if int32(s-p.limit.Load()) >= 0 {
			return false
		}
		if p.sent.CompareAndSwap(s, s+1) {
			return true
		}
	}
}

// applyGrant folds a cumulative grant g from this peer into the ledger,
// raising limit to g+w. A grant far behind the last one means the peer
// restarted with a fresh ledger (its delivered count reset to zero): the
// window is re-based on the peer's new world instead of deadlocking on
// credit that will never come back.
func (p *peer) applyGrant(g, w uint32) {
	for {
		last := p.lastGrant.Load()
		d := int32(g - last)
		if d < 0 {
			if -d <= int32(w) {
				return // stale or reordered grant: ignore
			}
			if !p.lastGrant.CompareAndSwap(last, g) {
				continue
			}
			p.sent.Store(g)
			p.limit.Store(g + w)
			pulse(p.creditCh)
			return
		}
		if p.lastGrant.CompareAndSwap(last, g) {
			break
		}
	}
	for {
		l := p.limit.Load()
		nl := g + w
		if int32(nl-l) <= 0 {
			return
		}
		if p.limit.CompareAndSwap(l, nl) {
			pulse(p.creditCh)
			return
		}
	}
}

// pulse wakes ch's waiter, if any, without blocking (ch has capacity 1).
func pulse(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// inKey names one inbound rendezvous transfer.
type inKey struct {
	from transport.Addr
	id   uint32
}

// inboundRdv is the receiver-side state of one rendezvous: the registered
// sink awaiting Write-Record placement. It is filed in two maps, by inKey
// for control messages and by steering tag for placement completions, and
// is in both or in neither. key, region, stag, buf, and n are immutable
// once the transfer is filed; the rest is guarded by Endpoint.rdvMu.
type inboundRdv struct {
	key    inKey
	region *memreg.Region
	stag   memreg.STag
	buf    []byte // sink (len == n), from Endpoint.sinks
	n      uint64
	born   time.Time

	finSeen bool
	// Sweeper progress tracking: an entry is reaped only after showing no
	// new placed bytes for two consecutive sweeps past RendezvousTimeout.
	lastCovered uint64
	staleSweeps int
}

// metrics is the process-wide diwarp_msg_* telemetry, shared by every
// endpoint.
type metrics struct {
	eagerSent, eagerRecv   *telemetry.Counter
	rdvSent, rdvRecv       *telemetry.Counter
	eagerBytes, rdvBytes   *telemetry.Counter
	creditStalls           *telemetry.Counter
	creditReclaims         *telemetry.Counter
	creditsSent            *telemetry.Counter
	rdvSwept, rdvTimeouts  *telemetry.Counter
	badHeaders, advisories *telemetry.Counter
	sendBytes              *telemetry.Histogram // the crossover histogram
	rdvUS                  *telemetry.Histogram
	rdvOpen                *telemetry.Gauge
}

var (
	metOnce sync.Once
	met     *metrics
)

func getMetrics() *metrics {
	metOnce.Do(func() {
		r := telemetry.Default
		met = &metrics{
			eagerSent:      r.Counter("diwarp_msg_eager_sent_total"),
			eagerRecv:      r.Counter("diwarp_msg_eager_recv_total"),
			rdvSent:        r.Counter("diwarp_msg_rdv_sent_total"),
			rdvRecv:        r.Counter("diwarp_msg_rdv_recv_total"),
			eagerBytes:     r.Counter("diwarp_msg_eager_bytes_total"),
			rdvBytes:       r.Counter("diwarp_msg_rdv_bytes_total"),
			creditStalls:   r.Counter("diwarp_msg_credit_stalls_total"),
			creditReclaims: r.Counter("diwarp_msg_credit_reclaims_total"),
			creditsSent:    r.Counter("diwarp_msg_credits_sent_total"),
			rdvSwept:       r.Counter("diwarp_msg_rdv_swept_total"),
			rdvTimeouts:    r.Counter("diwarp_msg_rdv_timeouts_total"),
			badHeaders:     r.Counter("diwarp_msg_bad_headers_total"),
			advisories:     r.Counter("diwarp_msg_advisories_total"),
			sendBytes:      r.Histogram("diwarp_msg_send_bytes"),
			rdvUS:          r.Histogram("diwarp_msg_rdv_us"),
			rdvOpen:        r.Gauge("diwarp_msg_rdv_open"),
		}
	})
	return met
}

// Endpoint is one message-layer endpoint over one datagram QP.
type Endpoint struct {
	cfg       Config
	threshold int
	window    uint32

	pd  *memreg.PD
	tbl *memreg.Table
	qp  *iwarp.UDQP

	rxPool  *nio.Pool // posted-receive buffers: HeaderLen + threshold
	hdrPool *nio.Pool // header staging for sends
	vecs    sync.Pool // *[2][]byte gather vectors for eager sends
	sinks   *sinkPool // rendezvous sink buffers

	rxSlab []byte // the allocation the receive ring was cut from (ringSlabs)
	rxMu   sync.Mutex
	rxBufs map[uint64][]byte // posted receive WRID -> buffer
	nextWR atomic.Uint64

	// The sharded peer table (peertab): the per-packet demux is a
	// lock-free snapshot lookup, and an entry lives as long as the peer.
	peers *peertab.Table[transport.Addr, peer]

	// Inbound rendezvous, one entry per transfer, under rdvMu. Whoever
	// deletes a transfer from both maps owns its delivery or teardown.
	rdvMu   sync.Mutex
	inbound map[inKey]*inboundRdv
	byStag  map[memreg.STag]*inboundRdv

	// CTSes and credit refills the receive path owes, sent by sweepLoop.
	ctlMu   sync.Mutex
	ctlQ    []ctlMsg
	ctlKick chan struct{} // pulsed when ctlQ gains an entry

	m      *metrics
	closed atomic.Bool
	done   chan struct{}
	wg     sync.WaitGroup

	// Per-endpoint counters (telemetry is process-global).
	nEagerSent, nEagerRecv atomic.Int64
	nRdvSent, nRdvRecv     atomic.Int64
	nEagerBytes, nRdvBytes atomic.Int64
	nCreditStalls          atomic.Int64
	nRdvSwept              atomic.Int64
}

// ringSlabs recycles receive-ring allocations across endpoint lifetimes.
// The ring — RecvDepth buffers of HeaderLen+EagerThreshold, 4.6 MB at the
// defaults — is one allocation, and allocating and zeroing it is most of
// what Open costs; an endpoint opened soon after one was closed (a socket
// per call, a set-up benchmark) takes over its predecessor's ring instead.
// Receive buffers are written by the QP before anything reads them, so a
// reused ring needs no clearing. Being a sync.Pool it keeps nothing past the
// next two collections.
var ringSlabs sync.Pool

func getRingSlab(n int) []byte {
	if p, _ := ringSlabs.Get().(*[]byte); p != nil && len(*p) == n {
		return *p
	}
	return make([]byte, n)
}

// Open builds a message-layer endpoint over ep: it creates the protection
// domain, registration table and datagram QP, whose send and receive CQ
// is one handler CQ (handleCQE), pre-posts the receive ring, and starts
// sweepLoop.
func Open(ep transport.Datagram, cfg Config) (*Endpoint, error) {
	if cfg.Handler == nil {
		return nil, ErrNilHandler
	}
	cfg = cfg.withDefaults()
	e := &Endpoint{
		cfg:       cfg,
		threshold: cfg.EagerThreshold,
		window:    uint32(cfg.EagerCredits),
		pd:        memreg.NewPD(),
		tbl:       memreg.NewTable(),
		rxPool:    nio.NewPool(HeaderLen + cfg.EagerThreshold),
		hdrPool:   nio.NewPool(HeaderLen),
		sinks:     newSinkPool(),
		rxBufs:    make(map[uint64][]byte, cfg.RecvDepth),
		peers:     peertab.New[transport.Addr, peer](peertab.HashAddr, peertab.Options{}),
		inbound:   make(map[inKey]*inboundRdv),
		byStag:    make(map[memreg.STag]*inboundRdv),
		m:         getMetrics(),
		done:      make(chan struct{}),
		ctlKick:   make(chan struct{}, 1),
	}
	e.vecs.New = func() any { return new([2][]byte) }
	cq := iwarp.NewCQFunc(e.handleCQE)
	qp, err := iwarp.OpenUD(ep, e.pd, e.tbl, cq, cq, iwarp.UDConfig{
		RecvDepth:  cfg.RecvDepth + 1,
		BlockOnRNR: cfg.Reliable,
	})
	if err != nil {
		return nil, err
	}
	e.qp = qp
	e.rxSlab = getRingSlab(cfg.RecvDepth * e.rxPool.BufSize())
	e.rxPool.Fill(e.rxSlab)
	for i := 0; i < cfg.RecvDepth; i++ {
		if err := e.postOneRecv(); err != nil {
			qp.Close()
			return nil, err
		}
	}
	e.wg.Add(1)
	go e.sweepLoop()
	return e, nil
}

// LocalAddr reports the endpoint's datagram address.
func (e *Endpoint) LocalAddr() transport.Addr { return e.qp.LocalAddr() }

// Threshold reports the eager/rendezvous crossover in effect.
func (e *Endpoint) Threshold() int { return e.threshold }

// Stats snapshots the endpoint's message counters.
func (e *Endpoint) Stats() Stats {
	return Stats{
		EagerSent:    e.nEagerSent.Load(),
		EagerRecv:    e.nEagerRecv.Load(),
		RdvSent:      e.nRdvSent.Load(),
		RdvRecv:      e.nRdvRecv.Load(),
		EagerBytes:   e.nEagerBytes.Load(),
		RdvBytes:     e.nRdvBytes.Load(),
		CreditStalls: e.nCreditStalls.Load(),
		RdvSwept:     e.nRdvSwept.Load(),
	}
}

// OutstandingRendezvous reports open transfers: inbound sinks registered
// and awaiting completion, and outbound RTSes awaiting CTS. Both must be
// zero at quiesce — the chaos suite's table-balance invariant.
func (e *Endpoint) OutstandingRendezvous() (inbound, outbound int) {
	e.rdvMu.Lock()
	inbound = len(e.inbound)
	e.rdvMu.Unlock()
	e.peers.Range(func(ent *peertab.Entry[transport.Addr, peer]) bool {
		p := &ent.V
		p.pendMu.Lock()
		outbound += len(p.pending)
		p.pendMu.Unlock()
		return true
	})
	return inbound, outbound
}

// PeerTableStats exposes the peer table's shard occupancy for diwarp-top.
func (e *Endpoint) PeerTableStats() peertab.Stats { return e.peers.Stats() }

// BufOutstanding reports buffers checked out of the endpoint's pools
// (posted receives count until Close returns them). After Close with every
// Message released it must equal zero — the chaos pool-balance invariant.
func (e *Endpoint) BufOutstanding() int64 {
	return e.rxPool.Outstanding() + e.hdrPool.Outstanding() + e.sinks.outstanding()
}

// peer returns (creating on first use) the protocol state for addr. The
// fast path is the table's lock-free snapshot lookup; the create path (and
// its init closure allocation) is kept out of line so the per-packet call
// stays allocation-free.
//
//diwarp:hotpath
func (e *Endpoint) peer(addr transport.Addr) *peer {
	if ent := e.peers.Get(addr); ent != nil {
		return &ent.V
	}
	return e.peerSlow(addr)
}

func (e *Endpoint) peerSlow(addr transport.Addr) *peer {
	// Unbounded table: GetOrCreate cannot fail. Peers are never evicted —
	// the credit ledger must survive as long as the remote may hold state
	// about us, or a re-created peer would double-grant its window.
	ent, _, _ := e.peers.GetOrCreate(addr, func(ent *peertab.Entry[transport.Addr, peer]) {
		p := &ent.V
		p.creditCh = make(chan struct{}, 1)
		p.rdvSem = make(chan struct{}, DefaultMaxRendezvous)
		p.pending = make(map[uint32]chan Header)
		p.limit.Store(e.window)
	})
	return &ent.V
}

// Send transfers payload to the peer at `to`, choosing eager or rendezvous
// by size. It blocks for flow control (eager credit, rendezvous slots and
// CTS) and returns once the payload is handed to the transport (eager) or
// fully streamed and FINed (rendezvous). Safe for concurrent use; payload
// is not retained after return.
func (e *Endpoint) Send(to transport.Addr, payload []byte) error {
	if e.closed.Load() {
		return ErrClosed
	}
	if len(payload) > MaxMessageSize {
		return ErrTooLarge
	}
	e.m.sendBytes.Observe(int64(len(payload)))
	p := e.peer(to)
	if len(payload) <= e.threshold {
		return e.sendEager(p, to, payload)
	}
	return e.sendRendezvous(p, to, payload)
}

// ---------------------------------------------------------------- eager --

func (e *Endpoint) sendEager(p *peer, to transport.Addr, payload []byte) error {
	if !p.tryReserve() {
		e.m.creditStalls.Inc()
		e.nCreditStalls.Add(1)
		if err := e.waitCredit(p); err != nil {
			return err
		}
	}
	hb := e.hdrPool.Get()
	h := Header{Type: TypeEager, Grant: p.consumed.Load(), Length: uint64(len(payload))}
	err := e.postEager(to, appendHeader(hb[:0], &h), payload)
	e.hdrPool.Put(hb[:HeaderLen])
	if err != nil {
		return err
	}
	e.noteGrantSent(p, h.Grant)
	e.m.eagerSent.Inc()
	e.m.eagerBytes.Add(int64(len(payload)))
	e.nEagerSent.Add(1)
	e.nEagerBytes.Add(int64(len(payload)))
	return nil
}

// postEager gathers header+payload into the QP without flattening: the
// payload's single copy happens inside the transport's wire segmentation.
// The two-element gather vector is pooled so the steady state allocates
// nothing.
//
//diwarp:hotpath
func (e *Endpoint) postEager(to transport.Addr, hdr, payload []byte) error {
	vb := e.vecs.Get().(*[2][]byte)
	vb[0], vb[1] = hdr, payload
	err := e.qp.PostSend(0, to, nio.Vec(vb[:]))
	vb[0], vb[1] = nil, nil
	e.vecs.Put(vb)
	return err
}

// waitCredit parks until the peer's window opens. If no grant arrives
// within CreditTimeout the sender reclaims one credit and proceeds: over an
// unreliable LLP the grant datagram itself can be lost, and a bounded
// overshoot of the receiver's window (it drops and advises) is preferable
// to a wedged sender.
func (e *Endpoint) waitCredit(p *peer) error {
	t := time.NewTimer(e.cfg.CreditTimeout)
	defer t.Stop()
	for {
		if p.tryReserve() {
			return nil
		}
		select {
		case <-p.creditCh:
		case <-t.C:
			e.m.creditReclaims.Inc()
			p.limit.Add(1)
			t.Reset(e.cfg.CreditTimeout)
		case <-e.done:
			return ErrClosed
		}
	}
}

// ----------------------------------------------------------- rendezvous --

func (e *Endpoint) sendRendezvous(p *peer, to transport.Addr, payload []byte) error {
	select {
	case p.rdvSem <- struct{}{}:
	case <-e.done:
		return ErrClosed
	}
	defer func() { <-p.rdvSem }()

	id := p.nextID.Add(1)
	ctsCh := make(chan Header, 1)
	p.pendMu.Lock()
	p.pending[id] = ctsCh
	p.pendMu.Unlock()
	defer func() {
		p.pendMu.Lock()
		delete(p.pending, id)
		p.pendMu.Unlock()
	}()

	start := time.Now()
	n := uint64(len(payload))
	if err := e.sendCtrl(p, to, &Header{Type: TypeRTS, MsgID: id, Length: n}); err != nil {
		return err
	}
	t := time.NewTimer(e.cfg.RendezvousTimeout)
	defer t.Stop()
	var cts Header
	select {
	case cts = <-ctsCh:
	case <-t.C:
		e.m.rdvTimeouts.Inc()
		return ErrRendezvousTimeout
	case <-e.done:
		return ErrClosed
	}
	// Stream the payload as one tagged Write-Record into the advertised
	// sink: the transport fragments it and the receiver's claim-based
	// direct placement lands wire bytes straight in the registered buffer
	// — no staging copy at either end.
	if err := e.qp.PostWriteRecord(0, to, memreg.STag(cts.STag), cts.TO, nio.VecOf(payload)); err != nil {
		return err
	}
	if err := e.sendCtrl(p, to, &Header{Type: TypeFIN, MsgID: id, Length: n}); err != nil {
		return err
	}
	e.m.rdvSent.Inc()
	e.m.rdvBytes.Add(int64(n))
	e.m.rdvUS.Observe(time.Since(start).Microseconds())
	e.nRdvSent.Add(1)
	e.nRdvBytes.Add(int64(n))
	return nil
}

// sendCtrl emits one pure control message, piggybacking the current
// cumulative grant for this peer.
func (e *Endpoint) sendCtrl(p *peer, to transport.Addr, h *Header) error {
	h.Grant = p.consumed.Load()
	hb := e.hdrPool.Get()
	err := e.qp.PostSend(0, to, nio.VecOf(appendHeader(hb[:0], h)))
	e.hdrPool.Put(hb[:HeaderLen])
	if err == nil {
		e.noteGrantSent(p, h.Grant)
	}
	return err
}

// noteGrantSent advances the sent-grant watermark so piggybacked grants
// defer explicit credit messages.
func (e *Endpoint) noteGrantSent(p *peer, g uint32) {
	for {
		last := p.grantSent.Load()
		if int32(g-last) <= 0 {
			return
		}
		if p.grantSent.CompareAndSwap(last, g) {
			return
		}
	}
}

// maybeGrant sends an explicit credit refill once the peer has consumed
// half a window beyond the last grant it was told about.
func (e *Endpoint) maybeGrant(p *peer, from transport.Addr) {
	c := p.consumed.Load()
	last := p.grantSent.Load()
	if c-last < e.window/2 {
		return
	}
	if !p.grantSent.CompareAndSwap(last, c) {
		return // another goroutine is granting
	}
	e.m.creditsSent.Inc()
	// sendCtrl re-reads consumed (>= c) and re-advances the watermark.
	e.queueCtrl(p, from, Header{Type: TypeCredit})
}

// ctlMsg is one control message queued for sweepLoop to send.
type ctlMsg struct {
	p  *peer
	to transport.Addr
	h  Header
}

// queueCtrl hands a control message from the receive path to sweepLoop.
// Sending it here could wait for LLP window space, which over rudp opens
// only while this goroutine drains rudp's delivery queue (DESIGN.md §4.11).
func (e *Endpoint) queueCtrl(p *peer, to transport.Addr, h Header) {
	e.ctlMu.Lock()
	e.ctlQ = append(e.ctlQ, ctlMsg{p: p, to: to, h: h})
	e.ctlMu.Unlock()
	pulse(e.ctlKick)
}

// sendQueued sends the queued control messages in order. spare becomes the
// new queue; the drained one is returned, emptied, as the next spare.
func (e *Endpoint) sendQueued(spare []ctlMsg) []ctlMsg {
	e.ctlMu.Lock()
	q := e.ctlQ
	e.ctlQ = spare[:0]
	e.ctlMu.Unlock()
	for i := range q {
		_ = e.sendCtrl(q[i].p, q[i].to, &q[i].h)
	}
	clear(q)
	return q[:0]
}

// ----------------------------------------------------------- receive side --

// postOneRecv checks a buffer out of the receive pool and posts it.
func (e *Endpoint) postOneRecv() error {
	// Pool buffers come back empty; a receive posts the full capacity.
	buf := e.rxPool.Get()
	buf = buf[:cap(buf)]
	id := e.nextWR.Add(1)
	e.rxMu.Lock()
	e.rxBufs[id] = buf
	e.rxMu.Unlock()
	if err := e.qp.PostRecv(id, buf); err != nil {
		e.rxMu.Lock()
		delete(e.rxBufs, id)
		e.rxMu.Unlock()
		e.rxPool.Put(buf)
		return err
	}
	return nil
}

// handleCQE consumes one completion of the QP on the goroutine that posted
// it: receives and placements arrive on the QP's receive goroutine.
func (e *Endpoint) handleCQE(cqe iwarp.CQE) {
	switch cqe.Type {
	case iwarp.WTRecv:
		e.handleRecv(cqe)
	case iwarp.WTWriteRecordRecv:
		e.onPlacement(cqe)
	case iwarp.WTError:
		e.m.advisories.Inc()
	}
}

func (e *Endpoint) handleRecv(cqe iwarp.CQE) {
	e.rxMu.Lock()
	buf, ok := e.rxBufs[cqe.WRID]
	if ok {
		delete(e.rxBufs, cqe.WRID)
	}
	e.rxMu.Unlock()
	if !ok {
		return
	}
	if cqe.Status != iwarp.StatusSuccess {
		// Flushed at close, or consumed by a length error: recycle, and
		// keep the ring full while the endpoint lives.
		e.rxPool.Put(buf)
		if cqe.Status != iwarp.StatusFlushed && !e.closed.Load() {
			_ = e.postOneRecv()
		}
		return
	}
	// Repost before dispatch so a BlockOnRNR wait never starts behind the
	// handler. (A blocking handler still stalls this whole goroutine.)
	if !e.closed.Load() {
		_ = e.postOneRecv()
	}
	e.dispatch(cqe.Src, buf, cqe.ByteLen)
}

// dispatch parses and routes one untagged message. It owns buf: eager
// delivery hands it to the handler (released via Message.Release), every
// other path returns it to the pool here.
func (e *Endpoint) dispatch(from transport.Addr, buf []byte, n int) {
	h, err := parseHeader(buf[:n])
	if err != nil {
		e.m.badHeaders.Inc()
		e.rxPool.Put(buf)
		return
	}
	p := e.peer(from)
	p.applyGrant(h.Grant, e.window)
	switch h.Type {
	case TypeEager:
		e.handleEager(p, from, buf, n, &h)
		return // handleEager owns buf
	case TypeRTS:
		e.handleRTS(p, from, &h)
	case TypeCTS:
		e.handleCTS(p, &h)
	case TypeFIN:
		e.handleFIN(from, &h)
	case TypeCredit:
		// applyGrant above did the work.
	}
	e.rxPool.Put(buf)
}

// handleEager delivers one eager message: the single payload copy already
// happened (wire into this posted receive); the handler gets the bytes in
// place.
//
//diwarp:hotpath
func (e *Endpoint) handleEager(p *peer, from transport.Addr, buf []byte, n int, h *Header) {
	want := HeaderLen + int(h.Length)
	if want != n {
		e.m.badHeaders.Inc()
		e.rxPool.Put(buf)
		return
	}
	p.consumed.Add(1)
	e.m.eagerRecv.Inc()
	e.m.eagerBytes.Add(int64(h.Length))
	e.nEagerRecv.Add(1)
	e.cfg.Handler(Message{From: from, Data: buf[HeaderLen:n], ep: e, buf: buf})
	e.maybeGrant(p, from)
}

// handleRTS opens (or idempotently re-answers) an inbound rendezvous:
// check a sink out of the pool, register it for remote write, advertise
// the steering tag with a CTS.
func (e *Endpoint) handleRTS(p *peer, from transport.Addr, h *Header) {
	if h.Length == 0 || h.Length > MaxMessageSize {
		e.m.badHeaders.Inc()
		return
	}
	k := inKey{from: from, id: h.MsgID}
	e.rdvMu.Lock()
	in := e.inbound[k]
	e.rdvMu.Unlock()
	if in == nil {
		// Build the whole transfer before filing it: registration takes the
		// memreg table's locks and stays outside rdvMu.
		buf := e.sinks.get(int(h.Length))
		region, err := e.tbl.Register(e.pd, buf, memreg.RemoteWrite)
		if err != nil {
			e.sinks.put(buf)
			e.m.badHeaders.Inc()
			return
		}
		cand := &inboundRdv{
			key:    k,
			region: region,
			stag:   region.STag(),
			buf:    buf,
			n:      h.Length,
			born:   time.Now(),
		}
		e.rdvMu.Lock()
		if in = e.inbound[k]; in == nil {
			in = cand
			e.inbound[k] = in
			e.byStag[in.stag] = in
		}
		e.rdvMu.Unlock()
		if in == cand {
			e.m.rdvOpen.Add(1)
		} else {
			// A duplicate RTS filed its transfer first: tear down this sink
			// and answer from that transfer.
			_ = e.tbl.Deregister(cand.stag)
			e.sinks.put(buf)
		}
	}
	// The sender never re-sends an RTS: it waits RendezvousTimeout once
	// and fails. A duplicate RTS comes only from the wire; it reuses the
	// entry above, and this CTS is re-sent idempotently.
	e.queueCtrl(p, from, Header{Type: TypeCTS, MsgID: h.MsgID, STag: uint32(in.stag), Length: h.Length, TO: 0})
}

// handleCTS hands the steering tag to the waiting sender.
func (e *Endpoint) handleCTS(p *peer, h *Header) {
	p.pendMu.Lock()
	ch := p.pending[h.MsgID]
	p.pendMu.Unlock()
	if ch == nil {
		return // timed out, completed, or duplicate
	}
	select {
	case ch <- *h:
	default: // duplicate CTS
	}
}

// handleFIN marks the sender done; completion still requires every byte
// placed (FIN can outrun tagged data on a reordering network).
func (e *Endpoint) handleFIN(from transport.Addr, h *Header) {
	e.rdvMu.Lock()
	in := e.inbound[inKey{from: from, id: h.MsgID}]
	if in != nil {
		in.finSeen = true
	}
	done := in != nil && e.takeIfComplete(in)
	e.rdvMu.Unlock()
	if done {
		e.deliver(in)
	}
}

// onPlacement handles a Write-Record placement completion: one Write-Record
// landed in some registered region. Runs on the QP's receive goroutine.
func (e *Endpoint) onPlacement(cqe iwarp.CQE) {
	if cqe.Status != iwarp.StatusSuccess {
		return
	}
	e.rdvMu.Lock()
	in := e.byStag[cqe.STag] // nil: late data for a swept or completed transfer
	done := in != nil && e.takeIfComplete(in)
	e.rdvMu.Unlock()
	if done {
		e.deliver(in)
	}
}

// takeIfComplete unfiles the transfer iff FIN has arrived and the sink's
// validity map covers the whole payload. The caller holds rdvMu; true
// makes it the one owner of the transfer, which it must deliver.
func (e *Endpoint) takeIfComplete(in *inboundRdv) bool {
	if !in.finSeen {
		return false
	}
	v := in.region.Validity()
	if v.Covered() < in.n {
		return false
	}
	delete(e.inbound, in.key)
	delete(e.byStag, in.stag)
	return true
}

// deliver hands a completed transfer's sink to the handler.
func (e *Endpoint) deliver(in *inboundRdv) {
	_ = e.tbl.Deregister(in.stag)
	e.m.rdvOpen.Add(-1)
	e.m.rdvRecv.Inc()
	e.m.rdvBytes.Add(int64(in.n))
	e.nRdvRecv.Add(1)
	e.nRdvBytes.Add(int64(in.n))
	e.cfg.Handler(Message{
		From:       in.key.from,
		Data:       in.buf[:in.n],
		Rendezvous: true,
		ep:         e,
		buf:        in.buf,
	})
}

// sweepLoop is the endpoint's one goroutine. It sends the control messages
// the receive path queued, and it reaps inbound rendezvous whose sender
// vanished: a sink past RendezvousTimeout with no placement progress across
// two consecutive sweeps is deregistered and its buffer reclaimed. What is
// still queued at Close is dropped; the QP it would leave by is closed.
func (e *Endpoint) sweepLoop() {
	defer e.wg.Done()
	t := time.NewTicker(e.cfg.SweepInterval)
	defer t.Stop()
	var spare []ctlMsg
	for {
		select {
		case <-e.done:
			return
		case <-e.ctlKick:
			spare = e.sendQueued(spare)
		case <-t.C:
			e.sweepInbound(time.Now())
		}
	}
}

func (e *Endpoint) sweepInbound(now time.Time) {
	var reap []*inboundRdv
	e.rdvMu.Lock()
	for k, in := range e.inbound {
		if now.Sub(in.born) < e.cfg.RendezvousTimeout {
			continue
		}
		v := in.region.Validity()
		if c := v.Covered(); c > in.lastCovered {
			in.lastCovered = c
			in.staleSweeps = 0
			continue
		}
		in.staleSweeps++
		if in.staleSweeps < 2 {
			continue
		}
		delete(e.inbound, k)
		delete(e.byStag, in.stag)
		reap = append(reap, in)
	}
	e.rdvMu.Unlock()
	for _, in := range reap {
		e.discard(in)
		e.m.rdvSwept.Inc()
		e.nRdvSwept.Add(1)
	}
}

// discard tears down an undelivered transfer its caller has unfiled:
// deregister the sink and return its buffer.
func (e *Endpoint) discard(in *inboundRdv) {
	_ = e.tbl.Deregister(in.stag)
	e.sinks.put(in.buf)
	e.m.rdvOpen.Add(-1)
}

// Close shuts the endpoint down. Closing the QP flushes every receive it
// held through handleCQE back into the pool before it returns; then the
// sweeper exits and the transfers still filed are torn down. Messages
// already delivered to the handler remain valid until their Release.
func (e *Endpoint) Close() error {
	if e.closed.Swap(true) {
		return nil
	}
	err := e.qp.Close()
	close(e.done)
	e.wg.Wait()
	if e.rxPool.Outstanding() == 0 {
		// Every receive buffer is home — none posted, none inside a Message
		// the application still holds — so nothing refers into the slab.
		ringSlabs.Put(&e.rxSlab)
	}
	// Tear down the transfers still filed. The QP and the sweeper have
	// stopped, so nothing else can take them any more.
	e.rdvMu.Lock()
	ins := e.inbound
	e.inbound = make(map[inKey]*inboundRdv)
	clear(e.byStag)
	e.rdvMu.Unlock()
	for _, in := range ins {
		e.discard(in)
	}
	return err
}

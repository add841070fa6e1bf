package bench

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/media"
	"repro/internal/simnet"
	"repro/internal/sip"
	"repro/internal/sockif"
	"repro/internal/stats"
	"repro/internal/transport"
)

// --- Figure 9: media streaming initial-buffering time ---

// StreamingResult is one bar of Figure 9.
type StreamingResult struct {
	Label     string
	Buffering time.Duration
	Bytes     int64
}

// StreamingConfig shapes the Figure 9 experiment.
type StreamingConfig struct {
	ClipSize  int64 // media asset size (default 8 MiB)
	PreBuffer int64 // client pre-buffer target (default 2 MiB)
	Trials    int   // runs per mode, best-of (default 3)
}

func (c StreamingConfig) withDefaults() StreamingConfig {
	if c.ClipSize == 0 {
		c.ClipSize = 8 << 20
	}
	if c.PreBuffer == 0 {
		c.PreBuffer = 2 << 20
	}
	if c.Trials == 0 {
		c.Trials = 3
	}
	return c
}

// streamSockCfg sizes socket slabs for media frames: the receive budget a
// streaming client configures (large SO_RCVBUF).
func streamSockCfg(prebuffer int64) sockif.Config {
	return sockif.Config{
		RecvBufSize:  2048,
		RecvBufCount: int(prebuffer/media.DefaultFrameSize) + 64,
		RingSize:     4 << 20,
	}
}

// RunStreaming measures initial-buffering time for the four Figure 9 modes
// in the paper's order: UD send/recv, UD RDMA Write-Record, RC send/recv
// (HTTP), RC RDMA Write (HTTP over the stream Write-Record profile).
func RunStreaming(cfg StreamingConfig) ([]StreamingResult, error) {
	cfg = cfg.withDefaults()
	var out []StreamingResult

	runUDP := func(label string, writeRecord bool) error {
		best := time.Duration(0)
		for trial := 0; trial < cfg.Trials; trial++ {
			net := simnet.New(simnet.Config{})
			ifSrv := simSockets(net, "server", streamSockCfg(cfg.PreBuffer))
			ifCli := simSockets(net, "client", streamSockCfg(cfg.PreBuffer))
			ss, err := ifSrv.BindDatagram(1234)
			if err != nil {
				return err
			}
			cs, err := ifCli.Socket(sockif.DatagramSocket)
			if err != nil {
				ss.Close()
				return err
			}
			srvErr := make(chan error, 1)
			go func() { srvErr <- media.ServeUDP(ss, media.NewClip(cfg.ClipSize), 10*time.Second) }()
			d, n, err := media.PreBufferUDP(cs, ss.LocalAddr(), cfg.PreBuffer, writeRecord, 60*time.Second)
			<-srvErr
			cs.Close()
			ss.Close()
			if err != nil {
				return fmt.Errorf("%s: %w (got %d bytes)", label, err, n)
			}
			if best == 0 || d < best {
				best = d
			}
		}
		out = append(out, StreamingResult{Label: label, Buffering: best, Bytes: cfg.PreBuffer})
		return nil
	}

	if err := runUDP("UD Send/Recv", false); err != nil {
		return nil, err
	}
	if err := runUDP("UD RDMA Write-Record", true); err != nil {
		return nil, err
	}

	runRC := func(label string, writeRecord bool) error {
		best := time.Duration(0)
		for trial := 0; trial < cfg.Trials; trial++ {
			net := simnet.New(simnet.Config{})
			sockCfg := streamSockCfg(cfg.PreBuffer)
			sockCfg.StreamWriteRecord = writeRecord
			ifSrv := simSockets(net, "server", sockCfg)
			ifCli := simSockets(net, "client", sockCfg)
			l, err := ifSrv.Listen(8080)
			if err != nil {
				return err
			}
			srvErr := make(chan error, 1)
			go func() { srvErr <- media.ServeHTTP(l, media.NewClip(cfg.ClipSize)) }()
			cs, err := ifCli.Socket(sockif.StreamSocket)
			if err != nil {
				l.Close()
				return err
			}
			if err := cs.Connect(l.Addr()); err != nil {
				cs.Close()
				l.Close()
				return err
			}
			d, n, err := media.PreBufferHTTP(cs, cfg.PreBuffer, 60*time.Second)
			// Hang up before waiting for the server: once the pre-buffer is
			// measured the client stops reading, and with a reliable stream
			// the server would otherwise stay blocked on backpressure
			// forever. The close makes its next Send fail, a normal hangup.
			cs.Close()
			<-srvErr
			l.Close()
			if err != nil {
				return fmt.Errorf("%s: %w (got %d bytes)", label, err, n)
			}
			if best == 0 || d < best {
				best = d
			}
		}
		out = append(out, StreamingResult{Label: label, Buffering: best, Bytes: cfg.PreBuffer})
		return nil
	}
	if err := runRC("RC Send/Recv (HTTP)", false); err != nil {
		return nil, err
	}
	if err := runRC("RC RDMA Write (HTTP)", true); err != nil {
		return nil, err
	}
	return out, nil
}

// RunSockifOverhead measures the §VI.B.2 in-text number: pre-buffering
// through the iWARP socket interface versus the native datagram transport.
// It returns (iWARP time, native time, overhead fraction).
func RunSockifOverhead(cfg StreamingConfig) (time.Duration, time.Duration, float64, error) {
	cfg = cfg.withDefaults()
	clip := media.NewClip(cfg.ClipSize)

	bestIWARP := time.Duration(0)
	for trial := 0; trial < cfg.Trials; trial++ {
		net := simnet.New(simnet.Config{})
		ifSrv := simSockets(net, "server", streamSockCfg(cfg.PreBuffer))
		ifCli := simSockets(net, "client", streamSockCfg(cfg.PreBuffer))
		ss, _ := ifSrv.BindDatagram(1234)
		cs, _ := ifCli.Socket(sockif.DatagramSocket)
		srvErr := make(chan error, 1)
		go func() { srvErr <- media.ServeUDP(ss, clip, 10*time.Second) }()
		d, _, err := media.PreBufferUDP(cs, ss.LocalAddr(), cfg.PreBuffer, false, 60*time.Second)
		<-srvErr
		cs.Close()
		ss.Close()
		if err != nil {
			return 0, 0, 0, err
		}
		if bestIWARP == 0 || d < bestIWARP {
			bestIWARP = d
		}
	}

	bestNative := time.Duration(0)
	for trial := 0; trial < cfg.Trials; trial++ {
		net := simnet.New(simnet.Config{})
		srvEp, err := net.OpenDatagram("server", 0)
		if err != nil {
			return 0, 0, 0, err
		}
		cliEp, err := net.OpenDatagram("client", 0)
		if err != nil {
			return 0, 0, 0, err
		}
		srvErr := make(chan error, 1)
		go func() { srvErr <- media.ServeNativeUDP(srvEp, clip, 10*time.Second) }()
		d, _, err := media.PreBufferNativeUDP(cliEp, srvEp.LocalAddr(), cfg.PreBuffer, 60*time.Second)
		<-srvErr
		cliEp.Close()
		srvEp.Close()
		if err != nil {
			return 0, 0, 0, err
		}
		if bestNative == 0 || d < bestNative {
			bestNative = d
		}
	}
	overhead := float64(bestIWARP-bestNative) / float64(bestNative)
	return bestIWARP, bestNative, overhead, nil
}

// --- Figure 10: SIP response time ---

// SIPLatencyResult holds one transport's response-time distribution.
type SIPLatencyResult struct {
	Label  string
	Invite stats.Sample // INVITE first-response times (µs)
	Calls  int
}

// RunSIPLatency measures SipStone call response times over UD and RC
// transports (Figure 10). Calls are sequential — "a server under light
// load".
func RunSIPLatency(calls int) (ud, rc SIPLatencyResult, err error) {
	if calls <= 0 {
		calls = 100
	}
	sockCfg := sockif.Config{RecvBufSize: 4096, RecvBufCount: 32}

	// UD.
	{
		net := simnet.New(simnet.Config{})
		ifSrv := simSockets(net, "server", sockCfg)
		ifCli := simSockets(net, "client", sockCfg)
		ss, e := ifSrv.BindDatagram(5060)
		if e != nil {
			return ud, rc, e
		}
		cs, e := ifCli.Socket(sockif.DatagramSocket)
		if e != nil {
			return ud, rc, e
		}
		srv := sip.NewServer(ss)
		go srv.Serve(30 * time.Second)
		cli := sip.NewClient(cs, ss.LocalAddr())
		ud = SIPLatencyResult{Label: "UD", Calls: calls}
		for i := 0; i < calls; i++ {
			rt, _, e := cli.Call(5 * time.Second)
			if e != nil {
				return ud, rc, fmt.Errorf("UD call %d: %w", i, e)
			}
			ud.Invite.AddDuration(rt)
		}
		cs.Close()
		ss.Close()
	}

	// RC: the same call flow over a stream socket connection.
	{
		net := simnet.New(simnet.Config{})
		ifSrv := simSockets(net, "server", sockCfg)
		ifCli := simSockets(net, "client", sockCfg)
		l, e := ifSrv.Listen(5060)
		if e != nil {
			return ud, rc, e
		}
		srvErr := make(chan error, 1)
		go func() { srvErr <- sip.ServeStream(l, 30*time.Second) }()
		cs, e := ifCli.Socket(sockif.StreamSocket)
		if e != nil {
			return ud, rc, e
		}
		if e := cs.Connect(l.Addr()); e != nil {
			return ud, rc, e
		}
		cli := sip.NewStreamClient(cs)
		rc = SIPLatencyResult{Label: "RC", Calls: calls}
		for i := 0; i < calls; i++ {
			rt, _, e := cli.Call(5 * time.Second)
			if e != nil {
				return ud, rc, fmt.Errorf("RC call %d: %w", i, e)
			}
			rc.Invite.AddDuration(rt)
		}
		cs.Close()
		l.Close()
		<-srvErr
	}
	return ud, rc, nil
}

// --- Figure 11: SIP server memory scalability ---

// SIPMemoryResult is one point of Figure 11.
type SIPMemoryResult struct {
	Calls          int
	UDBytes        int64 // accounted stack+app memory, UD sockets
	RCBytes        int64 // accounted stack+app memory, RC connections
	UDHeapBytes    int64 // measured process heap growth, UD
	RCHeapBytes    int64 // measured process heap growth, RC
	ImprovementPct float64
}

// sipMemSockCfg is the per-call socket shape for the scalability test:
// small slabs, like a SIP server handling tiny signalling messages.
func sipMemSockCfg() sockif.Config {
	return sockif.Config{RecvBufSize: 2048, RecvBufCount: 2}
}

// RunSIPMemory reproduces Figure 11: a SIP server holding n concurrent
// calls, each with its own socket (the SIPp configuration: "a single UDP
// port for each client"), comparing accounted memory for UD sockets
// against RC connections. Improvement is (RC-UD)/RC as the paper plots.
func RunSIPMemory(callCounts []int) ([]SIPMemoryResult, error) {
	var out []SIPMemoryResult
	for _, n := range callCounts {
		udBytes, udHeap, err := sipMemoryUD(n)
		if err != nil {
			return nil, fmt.Errorf("UD @%d: %w", n, err)
		}
		rcBytes, rcHeap, err := sipMemoryRC(n)
		if err != nil {
			return nil, fmt.Errorf("RC @%d: %w", n, err)
		}
		out = append(out, SIPMemoryResult{
			Calls:          n,
			UDBytes:        udBytes,
			RCBytes:        rcBytes,
			UDHeapBytes:    udHeap,
			RCHeapBytes:    rcHeap,
			ImprovementPct: 100 * float64(rcBytes-udBytes) / float64(rcBytes),
		})
	}
	return out, nil
}

func heapInUse() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapInuse)
}

// sipMemoryUD opens n server-side datagram sockets with one live dialog
// each and accounts their memory.
func sipMemoryUD(n int) (accounted, heap int64, err error) {
	net := simnet.New(simnet.Config{})
	ifSrv := simSockets(net, "server", sipMemSockCfg())
	before := heapInUse()
	socks := make([]*sockif.Socket, 0, n)
	defer func() {
		for _, s := range socks {
			s.Close()
		}
	}()
	srv := newDialogTable(n)
	for i := 0; i < n; i++ {
		s, e := ifSrv.Socket(sockif.DatagramSocket)
		if e != nil {
			return 0, 0, e
		}
		socks = append(socks, s)
		srv.add(i, s.LocalAddr().String())
	}
	accounted = ifSrv.Footprint() + srv.footprint()
	heap = heapInUse() - before
	return accounted, heap, nil
}

// sipMemoryRC opens n server-side accepted stream connections with one
// live dialog each.
func sipMemoryRC(n int) (accounted, heap int64, err error) {
	net := simnet.New(simnet.Config{StreamBufSize: 4 << 10})
	ifSrv := simSockets(net, "server", sipMemSockCfg())
	ifCli := simSockets(net, "client", sipMemSockCfg())
	l, err := ifSrv.Listen(5060)
	if err != nil {
		return 0, 0, err
	}
	defer l.Close()
	before := heapInUse()

	type acceptResult struct {
		s   *sockif.Socket
		err error
	}
	accepted := make(chan acceptResult, 64)
	go func() {
		for i := 0; i < n; i++ {
			s, err := l.Accept()
			accepted <- acceptResult{s, err}
			if err != nil {
				return
			}
		}
	}()
	var srvSocks, cliSocks []*sockif.Socket
	defer func() {
		for _, s := range srvSocks {
			s.Close()
		}
		for _, s := range cliSocks {
			s.Close()
		}
	}()
	srv := newDialogTable(n)
	for i := 0; i < n; i++ {
		cs, e := ifCli.Socket(sockif.StreamSocket)
		if e != nil {
			return 0, 0, e
		}
		cliSocks = append(cliSocks, cs)
		if e := cs.Connect(l.Addr()); e != nil {
			return 0, 0, e
		}
		ar := <-accepted
		if ar.err != nil {
			return 0, 0, ar.err
		}
		srvSocks = append(srvSocks, ar.s)
		srv.add(i, ar.s.Peer().String())
	}
	accounted = ifSrv.Footprint() + srv.footprint()
	heap = heapInUse() - before
	return accounted, heap, nil
}

// dialogTable models the SIP server's per-call application state for the
// memory experiment without running full signalling at 10 4 scale.
type dialogTable struct {
	calls map[int]*sip.CallState
}

func newDialogTable(n int) *dialogTable {
	return &dialogTable{calls: make(map[int]*sip.CallState, n)}
}

func (d *dialogTable) add(i int, peer string) {
	d.calls[i] = &sip.CallState{
		CallID: fmt.Sprintf("call-%d@%s", i, peer),
		From:   "<sip:uac@" + peer + ">;tag=x",
		To:     "<sip:uas@server>",
		State:  "established",
	}
}

func (d *dialogTable) footprint() int64 {
	var n int64
	for _, c := range d.calls {
		n += 160 + int64(len(c.CallID)+len(c.From)+len(c.To)+len(c.State))
	}
	return n
}

// simSockets builds a socket interface whose endpoints live on node of a
// simulated network.
func simSockets(net *simnet.Network, node string, cfg sockif.Config) *sockif.Interface {
	cfg.OpenDatagram = func(port uint16) (transport.Datagram, error) { return net.OpenDatagram(node, port) }
	cfg.Listen = func(port uint16) (transport.Listener, error) { return net.Listen(node, port) }
	cfg.Dial = func(to transport.Addr) (transport.Stream, error) { return net.Dial(node, to) }
	return sockif.New(cfg)
}

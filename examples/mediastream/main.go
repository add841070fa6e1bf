// Mediastream: the paper's VLC experiment in miniature (§VI.B.1).
//
// A media server streams a synthetic clip to a client through the iWARP
// socket interface in the three modes Figure 9 compares: UDP-style
// streaming over UD send/recv, the same stream over the RDMA Write-Record
// data path, and HTTP-style streaming over a reliable connection. For each
// mode the client reports its initial-buffering time.
//
//	go run ./examples/mediastream
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/media"
	"repro/internal/simnet"
	"repro/internal/sockif"
	"repro/internal/transport"
)

const (
	clipSize  = 4 << 20
	preBuffer = 1 << 20
)

func main() {
	log.SetFlags(0)
	fmt.Printf("streaming a %d MiB clip, %d MiB pre-buffer\n\n", clipSize>>20, preBuffer>>20)

	sockCfg := sockif.Config{
		RecvBufSize:  2048,
		RecvBufCount: preBuffer/media.DefaultFrameSize + 64,
		RingSize:     2 << 20,
	}

	// --- UD send/recv ----------------------------------------------------
	{
		net := simnet.New(simnet.Config{})
		srvIf := simSockets(net, "server", sockCfg)
		cliIf := simSockets(net, "client", sockCfg)
		ss, err := srvIf.BindDatagram(1234)
		check(err)
		cs, err := cliIf.Socket(sockif.DatagramSocket)
		check(err)
		done := make(chan error, 1)
		go func() { done <- media.ServeUDP(ss, media.NewClip(clipSize), 10*time.Second) }()
		d, n, err := media.PreBufferUDP(cs, ss.LocalAddr(), preBuffer, false, 30*time.Second)
		check(err)
		check(<-done)
		fmt.Printf("UD send/recv:        buffered %7d bytes in %8.2f ms\n", n, ms(d))
		cs.Close()
		ss.Close()
	}

	// --- UD RDMA Write-Record ---------------------------------------------
	{
		net := simnet.New(simnet.Config{})
		srvIf := simSockets(net, "server", sockCfg)
		cliIf := simSockets(net, "client", sockCfg)
		ss, err := srvIf.BindDatagram(1234)
		check(err)
		cs, err := cliIf.Socket(sockif.DatagramSocket)
		check(err)
		done := make(chan error, 1)
		go func() { done <- media.ServeUDP(ss, media.NewClip(clipSize), 10*time.Second) }()
		d, n, err := media.PreBufferUDP(cs, ss.LocalAddr(), preBuffer, true, 30*time.Second)
		check(err)
		check(<-done)
		fmt.Printf("UD Write-Record:     buffered %7d bytes in %8.2f ms\n", n, ms(d))
		cs.Close()
		ss.Close()
	}

	// --- RC HTTP ----------------------------------------------------------
	{
		net := simnet.New(simnet.Config{})
		srvIf := simSockets(net, "server", sockCfg)
		cliIf := simSockets(net, "client", sockCfg)
		l, err := srvIf.Listen(8080)
		check(err)
		done := make(chan error, 1)
		go func() { done <- media.ServeHTTP(l, media.NewClip(clipSize)) }()
		cs, err := cliIf.Socket(sockif.StreamSocket)
		check(err)
		check(cs.Connect(l.Addr()))
		d, n, err := media.PreBufferHTTP(cs, preBuffer, 30*time.Second)
		check(err)
		// Hang up: the server is still streaming the rest of the clip into
		// stream backpressure; closing our end unblocks it (its next Send
		// fails, a normal client disconnect).
		cs.Close()
		<-done
		fmt.Printf("RC HTTP (send/recv): buffered %7d bytes in %8.2f ms\n", n, ms(d))
		l.Close()
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

// simSockets builds a socket interface whose endpoints live on node of a
// simulated network.
func simSockets(net *simnet.Network, node string, cfg sockif.Config) *sockif.Interface {
	cfg.OpenDatagram = func(port uint16) (transport.Datagram, error) { return net.OpenDatagram(node, port) }
	cfg.Listen = func(port uint16) (transport.Listener, error) { return net.Listen(node, port) }
	cfg.Dial = func(to transport.Addr) (transport.Stream, error) { return net.Dial(node, to) }
	return sockif.New(cfg)
}

// Sipcall: SIP signalling over datagram-iWARP sockets (§VI.B.2).
//
// A SIP server (UAS) and client (UAC) run the SipStone basic call flow —
// INVITE → 180 Ringing → 200 OK, ACK, BYE → 200 OK — through the iWARP
// socket interface over both transports, printing each call's response
// time, then shows the per-socket memory difference that drives Figure 11.
//
//	go run ./examples/sipcall
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/simnet"
	"repro/internal/sip"
	"repro/internal/sockif"
	"repro/internal/transport"
)

func main() {
	log.SetFlags(0)

	// --- Calls over UD (datagram sockets, like SIP-over-UDP) -------------
	net := simnet.New(simnet.Config{StreamBufSize: 16 << 10})
	srvIf := simSockets(net, "server", sockif.Config{})
	cliIf := simSockets(net, "client", sockif.Config{})

	ss, err := srvIf.BindDatagram(5060)
	check(err)
	srv := sip.NewServer(ss)
	go srv.Serve(10 * time.Second)

	cs, err := cliIf.Socket(sockif.DatagramSocket)
	check(err)
	cli := sip.NewClient(cs, ss.LocalAddr())

	fmt.Println("UD (datagram sockets):")
	for i := 0; i < 3; i++ {
		inviteRT, total, err := cli.Call(5 * time.Second)
		check(err)
		fmt.Printf("  call %d: INVITE answered in %v, full call %v\n", i+1, inviteRT, total)
	}
	st := srv.Stats()
	fmt.Printf("  server handled %d INVITEs, %d BYEs, %d live dialogs remain\n\n",
		st.Invites, st.Byes, srv.Calls())

	// --- The same flow over RC (stream sockets, like SIP-over-TCP) -------
	l, err := srvIf.Listen(5061)
	check(err)
	go sip.ServeStream(l, 10*time.Second)
	scs, err := cliIf.Socket(sockif.StreamSocket)
	check(err)
	check(scs.Connect(l.Addr()))
	scli := sip.NewStreamClient(scs)

	fmt.Println("RC (stream sockets):")
	for i := 0; i < 3; i++ {
		inviteRT, total, err := scli.Call(5 * time.Second)
		check(err)
		fmt.Printf("  call %d: INVITE answered in %v, full call %v\n", i+1, inviteRT, total)
	}

	// --- Why UD scales: per-socket memory --------------------------------
	udFp := cs.Footprint()
	rcFp := scs.Footprint()
	fmt.Printf("\nper-socket memory: UD %d B vs RC %d B (UD saves %.1f%%)\n",
		udFp, rcFp, 100*float64(rcFp-udFp)/float64(rcFp))
	fmt.Println("(multiply by 10,000 concurrent calls for the paper's Figure 11)")

	scs.Close()
	l.Close()
	cs.Close()
	ss.Close()
}

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

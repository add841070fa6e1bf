// Command iwarpd is a standalone datagram-iWARP daemon speaking the stack
// over real kernel UDP (UD mode) and TCP (RC mode) sockets — the
// deployment face of the library and a convenient interop target.
//
// Services (selected with -service):
//
//	echo    reply every received untagged message to its sender (default)
//	discard count and drop received messages, printing a rate line
//	sink    register a 16 MiB Write-Record sink and print each recorded
//	        message's validity map (UD only)
//
// A UD client can be pointed at it with examples/quickstart -connect, or
// use -ping to run a one-shot client round trip against another iwarpd.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"time"

	iwarp "repro/internal/core"
	"repro/internal/crcx"
	"repro/internal/memreg"
	"repro/internal/nio"
	"repro/internal/pcap"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("iwarpd: ")
	var (
		host    = flag.String("host", "127.0.0.1", "address to bind")
		port    = flag.Uint("port", 9999, "UDP port for UD service")
		service = flag.String("service", "echo", "echo | discard | sink")
		ping    = flag.String("ping", "", "client mode: host:port of a running iwarpd echo service")
		size    = flag.Int("size", 64, "ping payload size")
		count   = flag.Int("count", 10, "ping round trips")

		metrics = flag.String("metrics", "", "serve telemetry HTTP endpoints on this host:port (port 0 = ephemeral)")
		pcapOut = flag.String("pcap", "", "write a .pcap capture of transport traffic to this file")
		sim     = flag.Bool("sim", false, "soak mode: run the stack over an in-process lossy simnet instead of kernel UDP")
		loss    = flag.Float64("loss", 0.01, "simnet per-fragment loss rate (with -sim)")
		dur     = flag.Duration("duration", 2*time.Second, "soak traffic duration (with -sim)")
		msgSize = flag.Int("msgsize", 2048, "soak message size in bytes (with -sim)")
		smoke   = flag.Bool("smoke-scrape", false, "after the -sim soak, scrape own /metrics and exit non-zero unless datapath counters moved")

		chaosMode = flag.Bool("chaos", false, "soak mode: sweep the fault-injection schedule suite (see internal/faultnet/chaos) until -duration elapses")
		chaosSeed = flag.Int64("chaos-seed", 0, "base seed for -chaos (0 = derive from clock; failures always print the seed)")

		soakPeers = flag.Int("soak-peers", 0, "soak mode: hold this many live reliable-datagram peers on one simnet hub and report per-peer memory (uses -duration for the hold phase)")
	)
	flag.Parse()

	if *soakPeers > 0 {
		cfg := soakConfig{Peers: *soakPeers, Duration: *dur, Progress: log.Printf}
		if err := runSoakPeers(cfg); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *chaosMode {
		if err := runChaos(*chaosSeed, *dur); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *sim {
		if err := runSim(*loss, *dur, *msgSize, *metrics, *pcapOut, *smoke); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *metrics != "" {
		bound, _, err := telemetry.Serve(*metrics, telemetry.Default, telemetry.DefaultTrace)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("metrics on http://%s/metrics (json: /metrics.json, trace: /trace.json)", bound)
	}
	if *pcapOut != "" {
		f, err := os.Create(*pcapOut)
		if err != nil {
			log.Fatal(err)
		}
		pcapTap, err = pcap.NewWriter(f)
		if err != nil {
			log.Fatal(err)
		}
		defer pcapTap.Close()
	}
	if *ping != "" {
		if err := runPing(*host, *ping, *size, *count); err != nil {
			log.Fatal(err)
		}
		return
	}
	if err := runServer(*host, uint16(*port), *service); err != nil {
		log.Fatal(err)
	}
}

// pcapTap, when non-nil, taps every endpoint openQP creates.
var pcapTap *pcap.Writer

func openQP(host string, port uint16) (*iwarp.UDQP, *memreg.PD, *memreg.Table, *iwarp.CQ, *iwarp.CQ, error) {
	var ep transport.Datagram
	ep, err := transport.ListenUDP(host, port)
	if err != nil {
		return nil, nil, nil, nil, nil, err
	}
	if pcapTap != nil {
		ep = pcap.TapDatagram(ep, pcapTap)
	}
	pd := memreg.NewPD()
	tbl := memreg.NewTable()
	scq := iwarp.NewCQ(0)
	rcq := iwarp.NewCQ(0)
	qp, err := iwarp.OpenUD(ep, pd, tbl, scq, rcq, iwarp.UDConfig{})
	if err != nil {
		ep.Close()
		return nil, nil, nil, nil, nil, err
	}
	return qp, pd, tbl, scq, rcq, nil
}

func runServer(host string, port uint16, service string) error {
	qp, pd, tbl, _, rcq, err := openQP(host, port)
	if err != nil {
		return err
	}
	defer qp.Close()
	log.Printf("UD %s service on %s (crc32c engine: %s)", service, qp.LocalAddr(), crcx.Engine())

	var sink *memreg.Region
	if service == "sink" {
		sink, err = tbl.Register(pd, make([]byte, 16<<20), memreg.RemoteWrite)
		if err != nil {
			return err
		}
		log.Printf("write-record sink: stag=%#x len=%d", uint32(sink.STag()), sink.Len())
	}

	const slab = 64
	bufs := make([][]byte, slab)
	for i := range bufs {
		bufs[i] = make([]byte, 64<<10)
		if err := qp.PostRecv(uint64(i), bufs[i]); err != nil {
			return err
		}
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	var msgs, bytes int64
	tick := time.NewTicker(5 * time.Second)
	defer tick.Stop()
	for {
		select {
		case <-sig:
			log.Printf("bye: %d msgs, %d bytes", msgs, bytes)
			return nil
		case <-tick.C:
			if service == "discard" && msgs > 0 {
				log.Printf("%d msgs, %d bytes", msgs, bytes)
			}
		default:
		}
		e, err := rcq.Poll(200 * time.Millisecond)
		if err != nil {
			continue
		}
		switch e.Type {
		case iwarp.WTRecv:
			if !e.Ok() {
				qp.PostRecv(e.WRID, bufs[e.WRID])
				continue
			}
			msgs++
			bytes += int64(e.ByteLen)
			if service == "echo" {
				if err := qp.PostSend(0, e.Src, nio.VecOf(bufs[e.WRID][:e.ByteLen])); err != nil {
					log.Printf("echo to %s: %v", e.Src, err)
				}
			}
			qp.PostRecv(e.WRID, bufs[e.WRID])
		case iwarp.WTWriteRecordRecv:
			msgs++
			bytes += int64(e.ByteLen)
			log.Printf("write-record from %s: stag=%#x to=%d len=%d validity=%s",
				e.Src, uint32(e.STag), e.TO, e.MsgLen, e.Validity.String())
		case iwarp.WTError:
			log.Printf("advisory error from %s: %v", e.Src, e.Err)
		}
	}
}

func runPing(host, target string, size, count int) error {
	dst, err := transport.ResolveAddr(target)
	if err != nil {
		return fmt.Errorf("bad -ping target %q (want host:port): %w", target, err)
	}

	qp, _, _, scq, rcq, err := openQP(host, 0)
	if err != nil {
		return err
	}
	defer qp.Close()
	payload := make([]byte, size)
	buf := make([]byte, size+16)
	sample := 0.0
	replies := 0
	for i := 0; i < count; i++ {
		if err := qp.PostRecv(1, buf); err != nil {
			return err
		}
		start := time.Now()
		if err := qp.PostSend(0, dst, nio.VecOf(payload)); err != nil {
			return err
		}
		if _, err := scq.Poll(time.Second); err != nil {
			return err
		}
		e, err := rcq.Poll(2 * time.Second)
		if err != nil {
			fmt.Printf("ping %d: lost\n", i)
			continue
		}
		rtt := time.Since(start)
		sample += float64(rtt.Microseconds())
		replies++
		fmt.Printf("ping %d: %d bytes from %s in %v\n", i, e.ByteLen, e.Src, rtt)
	}
	if replies > 0 {
		fmt.Printf("%d/%d replies, avg RTT %.1fµs\n", replies, count, sample/float64(replies))
	}
	return nil
}

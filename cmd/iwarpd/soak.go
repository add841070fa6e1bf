package main

import (
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"strings"
	"time"

	iwarp "repro/internal/core"
	"repro/internal/memreg"
	"repro/internal/nio"
	"repro/internal/pcap"
	"repro/internal/rudp"
	"repro/internal/simnet"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// runSim boots the full datapath over an in-process simulated lossy
// network — simnet, optionally a pcap tap, rudp reliability, and UD queue
// pairs on both ends — and soaks it with echo traffic. With smoke set it
// then scrapes its own /metrics endpoint and fails unless the datapath
// counters show traffic, loss, and recovery; that self-check is the CI
// gate for the observability subsystem (make telemetry-smoke).
func runSim(loss float64, duration time.Duration, msgSize int, metricsAddr, pcapPath string, smoke bool) error {
	nw := simnet.New(simnet.Config{LossRate: loss, Seed: 1})
	srvRaw, err := nw.OpenDatagram("srv", 0)
	if err != nil {
		return err
	}
	cliRaw, err := nw.OpenDatagram("cli", 0)
	if err != nil {
		return err
	}

	srvEp, cliEp := transport.Datagram(srvRaw), transport.Datagram(cliRaw)
	var pw *pcap.Writer
	if pcapPath != "" {
		f, err := os.Create(pcapPath)
		if err != nil {
			return err
		}
		defer f.Close()
		pw, err = pcap.NewWriter(f)
		if err != nil {
			return err
		}
		defer pw.Close()
		// One shared writer: both directions interleave into one capture.
		srvEp = pcap.TapDatagram(srvEp, pw)
		cliEp = pcap.TapDatagram(cliEp, pw)
	}

	// Reliability above the tap: retransmissions cross the tap and show in
	// the capture, exactly as they would on a wire.
	srv, cli := rudp.New(srvEp), rudp.New(cliEp)

	mkQP := func(ep transport.Datagram) (*iwarp.UDQP, *iwarp.CQ, *iwarp.CQ, error) {
		scq, rcq := iwarp.NewCQ(0), iwarp.NewCQ(0)
		qp, err := iwarp.OpenUD(ep, memreg.NewPD(), memreg.NewTable(), scq, rcq,
			iwarp.UDConfig{BlockOnRNR: true})
		return qp, scq, rcq, err
	}
	srvQP, _, srvRCQ, err := mkQP(srv)
	if err != nil {
		return err
	}
	defer srvQP.Close()
	cliQP, _, cliRCQ, err := mkQP(cli)
	if err != nil {
		return err
	}
	defer cliQP.Close()

	var stop func() error
	if metricsAddr != "" {
		bound, s, err := telemetry.Serve(metricsAddr, telemetry.Default, telemetry.DefaultTrace)
		if err != nil {
			return err
		}
		stop = s
		metricsAddr = bound
		log.Printf("metrics on http://%s/metrics (json: /metrics.json, trace: /trace.json)", bound)
	}

	// Echo server.
	const depth = 32
	srvBufs := make([][]byte, depth)
	for i := range srvBufs {
		srvBufs[i] = make([]byte, msgSize+16)
		if err := srvQP.PostRecv(uint64(i), srvBufs[i]); err != nil {
			return err
		}
	}
	srvDone := make(chan struct{})
	go func() {
		defer close(srvDone)
		for {
			e, err := srvRCQ.Poll(200 * time.Millisecond)
			if err != nil {
				if err == iwarp.ErrCQEmpty {
					continue
				}
				return
			}
			if e.Type != iwarp.WTRecv {
				continue
			}
			if e.Status == iwarp.StatusFlushed {
				return
			}
			if e.Ok() {
				//diwarp:ignore errflow: soak echo is best-effort; the client's receive timeout is the failure signal
				_ = srvQP.PostSend(0, e.Src, nio.VecOf(srvBufs[e.WRID][:e.ByteLen]))
			}
			//diwarp:ignore errflow: repost fails only on a closed QP, which ends the loop at the next poll
			_ = srvQP.PostRecv(e.WRID, srvBufs[e.WRID])
		}
	}()

	// Client: sequential echo round trips until the duration budget runs
	// out. Every round trip exercises send, segmentation, loss (under the
	// configured rate), rudp recovery, reassembly, and delivery.
	payload := make([]byte, msgSize)
	for i := range payload {
		payload[i] = byte(i)
	}
	echo := make([]byte, msgSize+16)
	deadline := time.Now().Add(duration)
	var rounds, lost int
	for time.Now().Before(deadline) {
		if err := cliQP.PostRecv(1, echo); err != nil {
			return err
		}
		if err := cliQP.PostSend(0, srvQP.LocalAddr(), nio.VecOf(payload)); err != nil {
			return err
		}
		if _, err := cliRCQ.Poll(2 * time.Second); err != nil {
			lost++
			continue
		}
		rounds++
	}
	log.Printf("soak: %d round trips, %d lost, loss rate %.3f, msg %dB", rounds, lost, loss, msgSize)

	if pw != nil {
		log.Printf("pcap: %d packets captured to %s", pw.Packets(), pcapPath)
	}
	if smoke {
		if metricsAddr == "" {
			return fmt.Errorf("-smoke-scrape needs -metrics")
		}
		if err := smokeScrape("http://" + metricsAddr); err != nil {
			return err
		}
		log.Printf("smoke scrape: all datapath counters live")
	}
	if stop != nil && smoke {
		return stop()
	}
	if stop != nil {
		// Interactive mode: keep serving until interrupted.
		log.Printf("serving metrics; ctrl-c to exit")
		select {}
	}
	return nil
}

// smokeScrape fetches the Prometheus endpoint and asserts the counters a
// lossy soak must have moved: traffic through the DDP layer, simulated
// wire loss, and rudp retransmissions recovering it.
func smokeScrape(base string) error {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	text := string(body)
	for _, name := range []string{
		"diwarp_ud_msgs_sent_total",
		"diwarp_ud_msgs_recv_total",
		"diwarp_ddp_segments_total",
		"diwarp_simnet_datagrams_sent_total",
		"diwarp_simnet_drop_loss_total",
		"diwarp_rudp_retransmits_total",
		"diwarp_rudp_acks_sent_total",
		"diwarp_rudp_recv_burst_datagrams_count",
	} {
		v, ok := scrapeValue(text, name)
		if !ok {
			return fmt.Errorf("smoke: metric %s missing from scrape", name)
		}
		if v <= 0 {
			return fmt.Errorf("smoke: metric %s is %d, want > 0", name, v)
		}
	}
	// Congestion-control series: the cwnd gauge is live from endpoint
	// construction and must be positive; the event counters only move under
	// specific fault patterns (SACKed seqs above a hole, ECN marks), so the smoke gate
	// pins their names without requiring the soak to have triggered them.
	if v, ok := scrapeValue(text, "diwarp_rudp_cc_cwnd"); !ok || v <= 0 {
		return fmt.Errorf("smoke: diwarp_rudp_cc_cwnd = %d (present=%v), want > 0", v, ok)
	}
	for _, name := range []string{
		"diwarp_rudp_cc_fast_retransmits_total",
		"diwarp_rudp_cc_spurious_rexmits_total",
		"diwarp_rudp_cc_ecn_marks_total",
		"diwarp_rudp_cc_md_events_total",
	} {
		if _, ok := scrapeValue(text, name); !ok {
			return fmt.Errorf("smoke: metric %s missing from scrape", name)
		}
	}
	return nil
}

// scrapeValue extracts an integer metric value from Prometheus text.
func scrapeValue(text, name string) (int64, bool) {
	for _, line := range strings.Split(text, "\n") {
		val, ok := strings.CutPrefix(line, name+" ")
		if !ok {
			continue
		}
		var v int64
		if _, err := fmt.Sscanf(val, "%d", &v); err == nil {
			return v, true
		}
	}
	return 0, false
}

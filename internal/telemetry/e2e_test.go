package telemetry_test

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
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

// TestEndToEndObservability is the issue's acceptance test: a full-stack
// echo exchange over a 1%-lossy simnet with a pcap tap and rudp recovery
// must yield (a) a Prometheus scrape whose retransmit and drop counters are
// non-zero, (b) a drained trace ring containing drop and retransmit events,
// and (c) a structurally valid .pcap whose packet count matches the tap's
// own counter.
func TestEndToEndObservability(t *testing.T) {
	nw := simnet.New(simnet.Config{LossRate: 0.01, Seed: 7})
	srvRaw, err := nw.OpenDatagram("srv", 0)
	if err != nil {
		t.Fatal(err)
	}
	cliRaw, err := nw.OpenDatagram("cli", 0)
	if err != nil {
		t.Fatal(err)
	}

	pcapPath := filepath.Join(t.TempDir(), "e2e.pcap")
	f, err := os.Create(pcapPath)
	if err != nil {
		t.Fatal(err)
	}
	pw, err := pcap.NewWriter(f)
	if err != nil {
		t.Fatal(err)
	}
	srvEp := pcap.TapDatagram(srvRaw, pw)
	cliEp := pcap.TapDatagram(cliRaw, pw)
	// Reliability above the tap, as in deployment: retransmissions cross
	// the tap and appear in the capture.
	srv, cli := rudp.New(srvEp), rudp.New(cliEp)

	mkQP := func(ep transport.Datagram) (*iwarp.UDQP, *iwarp.CQ) {
		t.Helper()
		scq, rcq := iwarp.NewCQ(0), iwarp.NewCQ(0)
		qp, err := iwarp.OpenUD(ep, memreg.NewPD(), memreg.NewTable(), scq, rcq,
			iwarp.UDConfig{BlockOnRNR: true})
		if err != nil {
			t.Fatal(err)
		}
		return qp, rcq
	}
	srvQP, srvRCQ := mkQP(srv)
	defer srvQP.Close()
	cliQP, cliRCQ := mkQP(cli)
	defer cliQP.Close()

	// Echo server, as cmd/iwarpd -sim runs it.
	const msgSize = 2048
	srvBufs := make([][]byte, 16)
	for i := range srvBufs {
		srvBufs[i] = make([]byte, msgSize+16)
		if err := srvQP.PostRecv(uint64(i), srvBufs[i]); err != nil {
			t.Fatal(err)
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
			if e.Type != iwarp.WTRecv || e.Status == iwarp.StatusFlushed {
				if e.Status == iwarp.StatusFlushed {
					return
				}
				continue
			}
			if e.Ok() {
				_ = srvQP.PostSend(0, e.Src, nio.VecOf(srvBufs[e.WRID][:e.ByteLen]))
			}
			_ = srvQP.PostRecv(e.WRID, srvBufs[e.WRID])
		}
	}()

	// Clear stale events so the assertions below see only this run.
	telemetry.DefaultTrace.Drain()

	// Client rounds until the lossy wire has demonstrably bitten: at least
	// one Bernoulli drop and one rudp retransmission on either side.
	payload := make([]byte, msgSize)
	echo := make([]byte, msgSize+16)
	var events []telemetry.Event
	deadline := time.Now().Add(20 * time.Second)
	rounds := 0
	for {
		if time.Now().After(deadline) {
			t.Fatalf("no loss+recovery after %d rounds: simnet %+v, cli %+v, srv %+v",
				rounds, nw.Counters(), cli.Snapshot(), srv.Snapshot())
		}
		if err := cliQP.PostRecv(1, echo); err != nil {
			t.Fatal(err)
		}
		if err := cliQP.PostSend(0, srvQP.LocalAddr(), nio.VecOf(payload)); err != nil {
			t.Fatal(err)
		}
		if _, err := cliRCQ.Poll(5 * time.Second); err != nil {
			t.Fatalf("round %d: echo lost despite rudp: %v", rounds, err)
		}
		rounds++
		events = append(events, telemetry.DefaultTrace.Drain()...)
		retrans := cli.Snapshot().Retransmits + srv.Snapshot().Retransmits
		if rounds >= 50 && nw.Counters().LostLoss > 0 && retrans > 0 {
			break
		}
	}

	// (a) Prometheus scrape: retransmit and drop counters > 0.
	addr, stop, err := telemetry.Serve("127.0.0.1:0", telemetry.Default, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"diwarp_rudp_retransmits_total",
		"diwarp_simnet_drop_loss_total",
		"diwarp_ud_msgs_recv_total",
	} {
		v, ok := scrapeValue(string(body), name)
		if !ok || v <= 0 {
			t.Errorf("scrape: %s = %d (present=%v), want > 0", name, v, ok)
		}
	}

	// (b) the trace ring saw the loss and the recovery.
	var drops, retransmits int
	for _, e := range events {
		switch e.Type {
		case telemetry.EvDrop:
			if e.Arg == telemetry.DropLoss {
				drops++
			}
		case telemetry.EvRetransmit:
			retransmits++
		}
	}
	if drops == 0 || retransmits == 0 {
		t.Errorf("trace: %d wire-loss drops, %d retransmits across %d events, want both > 0",
			drops, retransmits, len(events))
	}

	// (c) the capture is valid pcap and complete per the tap's counter.
	cliQP.Close()
	srvQP.Close()
	<-srvDone
	wantPackets := pw.Packets()
	if err := pw.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(pcapPath)
	if err != nil {
		t.Fatal(err)
	}
	recs := parsePcapFile(t, raw)
	if int64(recs) != wantPackets {
		t.Fatalf("pcap has %d records, tap counted %d", recs, wantPackets)
	}
	if recs == 0 {
		t.Fatal("empty capture")
	}
	t.Logf("e2e: %d rounds, %d pcap packets, %d drops, %d retransmits traced",
		rounds, recs, drops, retransmits)
}

// scrapeValue extracts an integer sample from Prometheus text exposition.
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

// parsePcapFile validates the file header and counts records (the detailed
// per-field validation lives in pcap_test.go; this checks the whole file's
// structure holds at soak volume).
func parsePcapFile(t *testing.T, b []byte) int {
	t.Helper()
	if len(b) < 24 {
		t.Fatalf("pcap too short: %d bytes", len(b))
	}
	if magic := uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3]); magic != 0xa1b2c3d4 {
		t.Fatalf("magic = %#x", magic)
	}
	b = b[24:]
	n := 0
	for len(b) > 0 {
		if len(b) < 16 {
			t.Fatalf("truncated record header after %d records", n)
		}
		incl := int(uint32(b[8])<<24 | uint32(b[9])<<16 | uint32(b[10])<<8 | uint32(b[11]))
		if len(b)-16 < incl {
			t.Fatalf("record %d claims %d bytes, %d remain", n, incl, len(b)-16)
		}
		b = b[16+incl:]
		n++
	}
	return n
}

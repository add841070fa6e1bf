package telemetry_test

import (
	"fmt"
	"io"
	"net/http"
	"testing"
	"time"

	"repro/internal/faultnet"
	"repro/internal/rudp"
	"repro/internal/simnet"
	"repro/internal/telemetry"
)

// TestRudpCCMetricNames pins the congestion-control metric names in the
// Prometheus exposition: dashboards and alerts key on these strings, so a
// rename must fail a test, not a production scrape. A lossy simnet run with
// faultnet ECN-marking the data path must move the mark/decrease counters,
// the ACK counter and the receive-burst histogram, and leave a positive
// cwnd gauge; the remaining cc series must at least be present.
func TestRudpCCMetricNames(t *testing.T) {
	nw := simnet.New(simnet.Config{LossRate: 0.15, Seed: 99})
	ia, err := nw.OpenDatagram("a", 0)
	if err != nil {
		t.Fatal(err)
	}
	ib, err := nw.OpenDatagram("b", 0)
	if err != nil {
		t.Fatal(err)
	}
	marking := faultnet.Wrap(ia, faultnet.Config{Seed: 99, MarkRate: 0.5, Marker: rudp.MarkCongestion})
	a, b := rudp.New(marking), rudp.New(ib)
	defer a.Close()
	defer b.Close()

	const count = 200
	go func() {
		for i := 0; i < count; i++ {
			if err := a.SendTo([]byte(fmt.Sprintf("cc-%03d", i)), b.LocalAddr()); err != nil {
				t.Errorf("send %d: %v", i, err)
				return
			}
		}
	}()
	for i := 0; i < count; i++ {
		if _, _, err := b.Recv(5 * time.Second); err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
	}
	if err := a.Flush(5 * time.Second); err != nil {
		t.Fatal(err)
	}

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
	text := string(body)

	// Must be present AND have moved during this run.
	for _, name := range []string{
		"diwarp_rudp_cc_cwnd",
		"diwarp_rudp_cc_ecn_marks_total",
		"diwarp_rudp_cc_md_events_total",
		"faultnet_marks_total",
		"diwarp_rudp_acks_sent_total",
		"diwarp_rudp_recv_burst_datagrams_count",
		"diwarp_rudp_recv_burst_datagrams_sum",
	} {
		v, ok := scrapeValue(text, name)
		if !ok || v <= 0 {
			t.Errorf("scrape: %s = %d (present=%v), want > 0", name, v, ok)
		}
	}
	// Must be present under the pinned name (value depends on the loss
	// pattern, so only existence is asserted).
	for _, name := range []string{
		"diwarp_rudp_cc_fast_retransmits_total",
		"diwarp_rudp_cc_spurious_rexmits_total",
		"diwarp_rudp_crc_fail_total",
		"diwarp_rudp_runt_total",
	} {
		if _, ok := scrapeValue(text, name); !ok {
			t.Errorf("scrape: %s missing from exposition", name)
		}
	}
}

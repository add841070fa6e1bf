package telemetry_test

import (
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	iwarp "repro/internal/core"
	"repro/internal/memreg"
	"repro/internal/nio"
	"repro/internal/simnet"
	"repro/internal/telemetry"
)

// TestRecvPipelineMetricNames pins the metric names the batched receive
// datapath exports. Dashboards and alerts key on these strings; renaming
// one must fail a test, not a production scrape.
func TestRecvPipelineMetricNames(t *testing.T) {
	nw := simnet.New(simnet.Config{})
	srvEp, err := nw.OpenDatagram("srv", 0)
	if err != nil {
		t.Fatal(err)
	}
	cliEp, err := nw.OpenDatagram("cli", 0)
	if err != nil {
		t.Fatal(err)
	}
	scq, rcq := iwarp.NewCQ(0), iwarp.NewCQ(0)
	srv, err := iwarp.OpenUD(srvEp, memreg.NewPD(), memreg.NewTable(), scq, rcq, iwarp.UDConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := iwarp.OpenUD(cliEp, memreg.NewPD(), memreg.NewTable(), iwarp.NewCQ(0), iwarp.NewCQ(0), iwarp.UDConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	// Enough traffic to recycle buffers back into the pool and draw them
	// out again, so the hit counter moves too, not just the miss counter.
	const rounds = 64
	buf := make([]byte, 2048)
	payload := make([]byte, 1024)
	for i := 0; i < rounds; i++ {
		if err := srv.PostRecv(uint64(i), buf); err != nil {
			t.Fatal(err)
		}
		if err := cli.PostSend(uint64(i), srv.LocalAddr(), nio.VecOf(payload)); err != nil {
			t.Fatal(err)
		}
		if _, err := rcq.Poll(2 * time.Second); err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
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

	// Counters that must be present and moving after the exchange above.
	for _, name := range []string{
		"diwarp_ddp_recv_batches_total",
		"diwarp_ddp_recv_segments_total",
		"diwarp_ddp_recycled_total",
		"diwarp_ud_msgs_recv_total",
	} {
		v, ok := scrapeValue(text, name)
		if !ok || v <= 0 {
			t.Errorf("scrape: %s = %d (present=%v), want > 0", name, v, ok)
		}
	}
	// Drop causes are exported from the first channel on, moving or not:
	// an alert on a cause must not wait for the first drop to find its name.
	for _, name := range []string{
		"diwarp_ddp_crc_fail_total",
		"diwarp_ddp_malformed_total",
	} {
		if _, ok := scrapeValue(text, name); !ok {
			t.Errorf("scrape: %s missing", name)
		}
	}
	// Pool traffic: every receive is either a hit or a miss, and recycling
	// under steady traffic must produce at least one hit.
	hits, okH := scrapeValue(text, "diwarp_ddp_recv_pool_hits_total")
	misses, okM := scrapeValue(text, "diwarp_ddp_recv_pool_misses_total")
	if !okH || !okM {
		t.Fatalf("pool counters missing: hits present=%v, misses present=%v", okH, okM)
	}
	if hits+misses <= 0 {
		t.Errorf("pool counters flat: hits=%d misses=%d", hits, misses)
	}
	// The batch-size histogram expands into _bucket/_sum/_count series.
	if !strings.Contains(text, "diwarp_ddp_recv_batch_segments_bucket{le=") {
		t.Error("scrape: no diwarp_ddp_recv_batch_segments_bucket series")
	}
	if v, ok := scrapeValue(text, "diwarp_ddp_recv_batch_segments_count"); !ok || v <= 0 {
		t.Errorf("scrape: diwarp_ddp_recv_batch_segments_count = %d (present=%v), want > 0", v, ok)
	}
}

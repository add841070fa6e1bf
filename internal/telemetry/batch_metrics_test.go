package telemetry_test

import (
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/telemetry"
	"repro/internal/transport"
)

// TestBatchMetricNames pins the metric names the kernel batch datapath and
// the send engine export (DESIGN.md §4.9). Dashboards key on these strings; renaming one
// must fail a test, not a production scrape. The test drives real loopback
// bursts so the histograms move on whatever tier this kernel probes to —
// portable, mmsg, or the full offloads.
func TestBatchMetricNames(t *testing.T) {
	src, err := transport.ListenUDP("127.0.0.1", 0)
	if err != nil {
		t.Skipf("no loopback UDP: %v", err)
	}
	defer src.Close()
	dst, err := transport.ListenUDP("127.0.0.1", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()

	burst := make([][]byte, 8)
	for i := range burst {
		burst[i] = []byte{byte(i), 1, 2, 3}
	}
	if _, err := src.SendBatch(burst, dst.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	pkts := make([][]byte, 8)
	froms := make([]transport.Addr, 8)
	for got := 0; got < len(burst); {
		n, err := dst.RecvBatch(pkts, froms, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			dst.Recycle(pkts[i])
		}
		got += n
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

	// Histograms that must be present and moving after the burst above.
	for _, name := range []string{
		"diwarp_transport_batch_syscalls",
		"diwarp_transport_segs_per_syscall",
	} {
		v, ok := scrapeValue(text, name+"_count")
		if !ok {
			t.Errorf("histogram %s missing from scrape", name)
		} else if v == 0 {
			t.Errorf("histogram %s never observed a burst", name)
		}
		if !strings.Contains(text, name+"_bucket{le=") {
			t.Errorf("histogram %s has no buckets in scrape", name)
		}
	}
	// The send engine's refusal counter is registered with the transport,
	// so it is in every scrape, refusals or not.
	if _, ok := scrapeValue(text, "diwarp_transport_tx_dropped_total"); !ok {
		t.Error("counter diwarp_transport_tx_dropped_total missing from scrape")
	}
	// Capability gauges: present with a 0/1 verdict, matching the probe.
	feats := dst.BatchFeatures()
	for _, g := range []struct {
		name string
		on   bool
	}{
		{"diwarp_transport_gso_enabled", src.BatchFeatures().GSO},
		{"diwarp_transport_gro_enabled", feats.GRO},
	} {
		v, ok := scrapeValue(text, g.name)
		if !ok {
			t.Errorf("gauge %s missing from scrape", g.name)
			continue
		}
		want := int64(0)
		if g.on {
			want = 1
		}
		if v != want {
			t.Errorf("gauge %s = %d, want %d (probe verdict %v)", g.name, v, want, feats)
		}
	}
}

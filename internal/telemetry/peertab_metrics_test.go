package telemetry_test

import (
	"io"
	"net/http"
	"net/netip"
	"testing"

	"repro/internal/peertab"
	"repro/internal/telemetry"
)

// TestPeertabMetricNames pins the metric names the sharded peer table
// exports (DESIGN.md §4.12). diwarp-top's peer-table row and the soak
// harness key on these strings; renaming one must fail a test, not a
// production scrape. The test drives a small table through insert, evict,
// and an admission reject so every counter moves, then refreshes the
// imbalance gauges via Stats.
func TestPeertabMetricNames(t *testing.T) {
	tab := peertab.New[netip.AddrPort, int](peertab.HashAddr, peertab.Options{Shards: 4, Capacity: 8})
	peer := func(i int) netip.AddrPort {
		return netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, 0, 0, byte(i)}), 7000)
	}
	for i := 0; i < 8; i++ {
		if _, _, err := tab.GetOrCreate(peer(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	// Table full: one more admission must reject and count.
	if _, _, err := tab.GetOrCreate(peer(8), nil); err == nil {
		t.Fatal("admission past capacity succeeded")
	}
	if tab.Evict(peer(0)) == nil {
		t.Fatal("evict of a live peer failed")
	}
	tab.Stats() // refresh the shard max/min gauges

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

	// Counters this test moved. They are process-global and monotonic, so
	// concurrent tables elsewhere in the test binary can only raise them.
	for _, name := range []string{
		"diwarp_peertab_evictions_total",
		"diwarp_peertab_admission_rejects_total",
	} {
		v, ok := scrapeValue(text, name)
		if !ok {
			t.Errorf("counter %s missing from scrape", name)
		} else if v == 0 {
			t.Errorf("counter %s never moved", name)
		}
	}
	// Gauges. Occupancy aggregates every live table in the process (other
	// tests' endpoints included), so only presence is pinned here.
	for _, name := range []string{
		"diwarp_peertab_occupancy",
		"diwarp_peertab_shard_max",
		"diwarp_peertab_shard_min",
	} {
		if _, ok := scrapeValue(text, name); !ok {
			t.Errorf("gauge %s missing from scrape", name)
		}
	}
}

// Command diwarp-top renders a live view of a running iwarpd's telemetry,
// in the spirit of top(1): it polls the daemon's /metrics.json endpoint
// and prints counters, gauges, and histogram summaries, with per-interval
// rates computed between successive snapshots.
//
//	diwarp-top -addr 127.0.0.1:9090            # watch, refresh every 2s
//	diwarp-top -addr 127.0.0.1:9090 -once      # single snapshot and exit
//	diwarp-top -addr 127.0.0.1:9090 -interval 500ms
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"sort"
	"text/tabwriter"
	"time"

	"repro/internal/telemetry"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("diwarp-top: ")
	var (
		addr     = flag.String("addr", "127.0.0.1:9090", "iwarpd telemetry endpoint (host:port)")
		once     = flag.Bool("once", false, "print one snapshot and exit")
		interval = flag.Duration("interval", 2*time.Second, "refresh period in watch mode")
	)
	flag.Parse()

	url := "http://" + *addr + "/metrics.json"
	prev, err := fetch(url)
	if err != nil {
		log.Fatal(err)
	}
	render(os.Stdout, *addr, prev, nil, 0)
	if *once {
		return
	}
	for {
		time.Sleep(*interval)
		cur, err := fetch(url)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println()
		render(os.Stdout, *addr, cur, prev, *interval)
		prev = cur
	}
}

// fetch pulls one JSON snapshot from the daemon.
func fetch(url string) (*telemetry.Snapshot, error) {
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: HTTP %s", url, resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	var s telemetry.Snapshot
	if err := json.Unmarshal(body, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", url, err)
	}
	return &s, nil
}

// render prints one snapshot. When prev is non-nil, a rate column shows
// each counter's delta over the polling interval, per second.
func render(w io.Writer, addr string, cur, prev *telemetry.Snapshot, interval time.Duration) error {
	fmt.Fprintf(w, "diwarp-top — %s — %s\n", addr, time.Now().Format("15:04:05"))
	if line := msgSummary(cur, prev, interval); line != "" {
		fmt.Fprintln(w, line)
	}
	if line := peertabSummary(cur); line != "" {
		fmt.Fprintln(w, line)
	}
	if line := rudpSummary(cur, prev, interval); line != "" {
		fmt.Fprintln(w, line)
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)

	if len(cur.Counters) > 0 {
		if prev != nil {
			fmt.Fprintln(tw, "  COUNTER\tVALUE\tRATE/s")
		} else {
			fmt.Fprintln(tw, "  COUNTER\tVALUE")
		}
		for _, name := range sortedKeys(cur.Counters) {
			v := cur.Counters[name]
			if prev != nil {
				rate := float64(v-prev.Counters[name]) / interval.Seconds()
				fmt.Fprintf(tw, "  %s\t%s\t%.1f\n", name, telemetry.FormatValue(v), rate)
			} else {
				fmt.Fprintf(tw, "  %s\t%s\n", name, telemetry.FormatValue(v))
			}
		}
	}
	if len(cur.Gauges) > 0 {
		fmt.Fprintln(tw, "  GAUGE\tVALUE")
		for _, name := range sortedKeys(cur.Gauges) {
			fmt.Fprintf(tw, "  %s\t%s\n", name, telemetry.FormatValue(cur.Gauges[name]))
		}
	}
	if len(cur.Histograms) > 0 {
		fmt.Fprintln(tw, "  HISTOGRAM\tCOUNT\tMEAN\tP50\tP99")
		names := make([]string, 0, len(cur.Histograms))
		for name := range cur.Histograms {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			h := cur.Histograms[name]
			if h.Count == 0 {
				continue
			}
			fmt.Fprintf(tw, "  %s\t%s\t%.1f\t≤%d\t≤%d\n",
				name, telemetry.FormatValue(h.Count), h.Mean(), h.Quantile(0.5), h.Quantile(0.99))
		}
	}
	return tw.Flush()
}

// msgSummary condenses the message layer (DESIGN.md §4.11) into one row:
// messages and bytes moved on each datapath with per-interval rates, open
// rendezvous, and the health counters that should stay at zero (credit
// stalls, sweeps). Empty when the daemon exports no msg metrics.
func msgSummary(cur, prev *telemetry.Snapshot, interval time.Duration) string {
	eager := cur.Counters["diwarp_msg_eager_sent_total"] + cur.Counters["diwarp_msg_eager_recv_total"]
	rdv := cur.Counters["diwarp_msg_rdv_sent_total"] + cur.Counters["diwarp_msg_rdv_recv_total"]
	bytes := cur.Counters["diwarp_msg_eager_bytes_total"] + cur.Counters["diwarp_msg_rdv_bytes_total"]
	if eager+rdv == 0 {
		if _, ok := cur.Counters["diwarp_msg_eager_sent_total"]; !ok {
			return "" // layer not in use
		}
	}
	rate := ""
	if prev != nil && interval > 0 {
		db := bytes - prev.Counters["diwarp_msg_eager_bytes_total"] - prev.Counters["diwarp_msg_rdv_bytes_total"]
		rate = fmt.Sprintf(" · %.1f MB/s", float64(db)/1e6/interval.Seconds())
	}
	return fmt.Sprintf("msg layer: eager %s · rdv %s · %s B%s · open %d · stalls %d · swept %d",
		telemetry.FormatValue(eager), telemetry.FormatValue(rdv), telemetry.FormatValue(bytes), rate,
		cur.Gauges["diwarp_msg_rdv_open"],
		cur.Counters["diwarp_msg_credit_stalls_total"],
		cur.Counters["diwarp_msg_rdv_swept_total"])
}

// peertabSummary condenses the sharded peer tables (DESIGN.md §4.12) into
// one row: live peers across every table in the process, the most- and
// least-loaded stripes (imbalance at a glance), and the lifecycle counters
// — idle/capacity evictions and admission rejects. Empty when the daemon
// exports no peertab metrics.
func peertabSummary(cur *telemetry.Snapshot) string {
	occ, ok := cur.Gauges["diwarp_peertab_occupancy"]
	if !ok {
		return "" // no peer tables in this daemon
	}
	return fmt.Sprintf("peer tables: %s peers · shard max/min %d/%d · evicted %s · rejected %s",
		telemetry.FormatValue(occ),
		cur.Gauges["diwarp_peertab_shard_max"],
		cur.Gauges["diwarp_peertab_shard_min"],
		telemetry.FormatValue(cur.Counters["diwarp_peertab_evictions_total"]),
		telemetry.FormatValue(cur.Counters["diwarp_peertab_admission_rejects_total"]))
}

// rudpSummary condenses reliability and congestion control (DESIGN.md
// §4.13) into one row: the live cwnd, total and fast retransmissions with a
// per-interval retransmit rate, and the health counters — ECN marks seen,
// multiplicative decreases, and spurious duplicates at the receiver — and the
// receive side's coalescing: ACKs sent and the mean width of a receive burst
// (each burst is answered by at most one ACK per peer). Empty when the
// daemon exports no rudp cc metrics.
func rudpSummary(cur, prev *telemetry.Snapshot, interval time.Duration) string {
	cwnd, ok := cur.Gauges["diwarp_rudp_cc_cwnd"]
	if !ok {
		return "" // no reliable endpoints in this daemon
	}
	rate := ""
	if prev != nil && interval > 0 {
		dr := cur.Counters["diwarp_rudp_retransmits_total"] - prev.Counters["diwarp_rudp_retransmits_total"]
		rate = fmt.Sprintf(" (%.1f/s)", float64(dr)/interval.Seconds())
	}
	burst := 0.0
	if h := cur.Histograms["diwarp_rudp_recv_burst_datagrams"]; h.Count > 0 {
		burst = float64(h.Sum) / float64(h.Count)
	}
	return fmt.Sprintf("rudp cc: cwnd %d · rexmit %s%s · fast %s · marks %s · decreases %s · spurious %s · acks %s · burst %.1f",
		cwnd,
		telemetry.FormatValue(cur.Counters["diwarp_rudp_retransmits_total"]), rate,
		telemetry.FormatValue(cur.Counters["diwarp_rudp_cc_fast_retransmits_total"]),
		telemetry.FormatValue(cur.Counters["diwarp_rudp_cc_ecn_marks_total"]),
		telemetry.FormatValue(cur.Counters["diwarp_rudp_cc_md_events_total"]),
		telemetry.FormatValue(cur.Counters["diwarp_rudp_cc_spurious_rexmits_total"]),
		telemetry.FormatValue(cur.Counters["diwarp_rudp_acks_sent_total"]), burst)
}

func sortedKeys(m map[string]int64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

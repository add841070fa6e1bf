package diwarp

// Benchmark harness: one testing.B benchmark per figure of the paper's
// evaluation section, plus ablations for the design choices DESIGN.md
// calls out. The same measurement code backs cmd/iwarpbench, cmd/sipbench
// and cmd/mediabench, which print the full paper-style tables; these
// benchmarks expose each figure's datapoints to `go test -bench`.
//
// Custom metrics:
//
//	µs/one-way   mean one-way latency (Figure 5)
//	MB/s         delivered goodput, decimal megabytes (Figures 6–8)
//	ms/buffering initial media buffering time (Figure 9)
//	µs/call      SIP INVITE response time (Figure 10)
//	B/call       accounted server memory per concurrent call (Figure 11)

import (
	"fmt"
	"testing"

	"repro/internal/bench"
	"repro/internal/mpa"
	"repro/internal/simnet"
)

var fig5Sizes = map[string]int{
	"small_64B":   64,
	"medium_16KB": 16 << 10,
	"large_512KB": 512 << 10,
}

var allModes = []bench.Mode{bench.UDSendRecv, bench.UDWriteRecord, bench.RCSendRecv, bench.RCWrite}

func benchEnv(b *testing.B, cfg bench.EnvConfig) *bench.Env {
	b.Helper()
	env, err := bench.NewEnv(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(env.Close)
	return env
}

// BenchmarkFig5Latency reproduces Figure 5 (three size panels × four
// modes): verbs ping-pong latency.
func BenchmarkFig5Latency(b *testing.B) {
	for _, mode := range allModes {
		for label, size := range fig5Sizes {
			b.Run(fmt.Sprintf("%s/%s", sanitize(mode.String()), label), func(b *testing.B) {
				env := benchEnv(b, bench.EnvConfig{})
				iters := b.N
				if iters > 2000 {
					iters = 2000
				}
				s, err := env.PingPong(mode, size, iters)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(s.Mean(), "µs/one-way")
				b.ReportMetric(0, "ns/op")
			})
		}
	}
}

// BenchmarkFig6Bandwidth reproduces Figure 6: unidirectional verbs
// bandwidth at representative sizes.
func BenchmarkFig6Bandwidth(b *testing.B) {
	for _, mode := range allModes {
		for _, size := range []int{1 << 10, 64 << 10, 512 << 10} {
			b.Run(fmt.Sprintf("%s/%d", sanitize(mode.String()), size), func(b *testing.B) {
				env := benchEnv(b, bench.EnvConfig{})
				count := max(min(b.N, 4096), 16)
				r, err := env.Bandwidth(mode, size, count)
				if err != nil {
					b.Fatal(err)
				}
				b.SetBytes(int64(size))
				b.ReportMetric(r.MBps(), "MB/s")
				b.ReportMetric(0, "ns/op")
			})
		}
	}
}

// BenchmarkFig7LossSendRecv reproduces Figure 7: UD send/recv goodput
// under packet loss (whole-message delivery collapses past the MTU).
func BenchmarkFig7LossSendRecv(b *testing.B) {
	benchLoss(b, bench.UDSendRecv)
}

// BenchmarkFig8LossWriteRecord reproduces Figure 8: UD Write-Record
// goodput under packet loss (partial placement keeps goodput above 64 KB).
func BenchmarkFig8LossWriteRecord(b *testing.B) {
	benchLoss(b, bench.UDWriteRecord)
}

func benchLoss(b *testing.B, mode bench.Mode) {
	for _, rate := range []float64{0.001, 0.005, 0.01, 0.05} {
		for _, size := range []int{1 << 10, 64 << 10, 1 << 20} {
			b.Run(fmt.Sprintf("loss%.1f%%/%d", rate*100, size), func(b *testing.B) {
				env := benchEnv(b, bench.EnvConfig{Sim: simnet.Config{LossRate: rate, Seed: 1}})
				count := max(min(b.N, 1024), 16)
				r, err := env.Bandwidth(mode, size, count)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(r.MBps(), "MB/s")
				b.ReportMetric(100*float64(r.Delivered)/float64(int64(size)*int64(count)), "%delivered")
				b.ReportMetric(0, "ns/op")
			})
		}
	}
}

// BenchmarkFig9Streaming reproduces Figure 9: initial buffering time for
// UD streaming (send/recv and Write-Record) versus RC HTTP streaming.
func BenchmarkFig9Streaming(b *testing.B) {
	res, err := bench.RunStreaming(bench.StreamingConfig{ClipSize: 4 << 20, PreBuffer: 1 << 20, Trials: 2})
	if err != nil {
		b.Fatal(err)
	}
	for _, r := range res {
		r := r
		b.Run(sanitize(r.Label), func(b *testing.B) {
			b.ReportMetric(float64(r.Buffering.Microseconds())/1000, "ms/buffering")
			b.ReportMetric(0, "ns/op")
		})
	}
}

// BenchmarkSockifOverhead reproduces the §VI.B.2 in-text measurement: the
// socket interface's overhead versus native UDP (paper: ≈2%).
func BenchmarkSockifOverhead(b *testing.B) {
	iw, native, frac, err := bench.RunSockifOverhead(bench.StreamingConfig{ClipSize: 4 << 20, PreBuffer: 1 << 20, Trials: 2})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(iw.Microseconds())/1000, "ms/iwarp")
	b.ReportMetric(float64(native.Microseconds())/1000, "ms/native")
	b.ReportMetric(frac*100, "%overhead")
	b.ReportMetric(0, "ns/op")
}

// BenchmarkFig10SIPLatency reproduces Figure 10: SipStone call response
// time over UD and RC sockets.
func BenchmarkFig10SIPLatency(b *testing.B) {
	calls := max(min(b.N, 500), 20)
	ud, rc, err := bench.RunSIPLatency(calls)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("UD", func(b *testing.B) {
		b.ReportMetric(ud.Invite.Mean(), "µs/call")
		b.ReportMetric(0, "ns/op")
	})
	b.Run("RC", func(b *testing.B) {
		b.ReportMetric(rc.Invite.Mean(), "µs/call")
		b.ReportMetric(0, "ns/op")
	})
}

// BenchmarkFig11SIPMemory reproduces Figure 11: accounted SIP-server
// memory per concurrent call population, UD vs RC. (Full 10k-call points
// run via `cmd/sipbench -fig 11`; the benchmark uses 1k to stay fast.)
func BenchmarkFig11SIPMemory(b *testing.B) {
	res, err := bench.RunSIPMemory([]int{1000})
	if err != nil {
		b.Fatal(err)
	}
	r := res[0]
	b.Run("UD", func(b *testing.B) {
		b.ReportMetric(float64(r.UDBytes)/float64(r.Calls), "B/call")
		b.ReportMetric(0, "ns/op")
	})
	b.Run("RC", func(b *testing.B) {
		b.ReportMetric(float64(r.RCBytes)/float64(r.Calls), "B/call")
		b.ReportMetric(0, "ns/op")
	})
	b.Run("improvement", func(b *testing.B) {
		b.ReportMetric(r.ImprovementPct, "%saved")
		b.ReportMetric(0, "ns/op")
	})
}

// --- Ablations (DESIGN.md §6) ---

// BenchmarkAblationMPAMarkers isolates the cost of MPA stream markers: RC
// send/recv bandwidth with the standard profile vs markerless MPA. The gap
// is part of what datagram mode deletes wholesale.
func BenchmarkAblationMPAMarkers(b *testing.B) {
	const size = 256 << 10
	profiles := map[string]mpa.Config{
		"markers_on":  {},
		"markers_off": {MarkerInterval: -1},
	}
	for label, cfg := range profiles {
		b.Run(label, func(b *testing.B) {
			env := benchEnv(b, bench.EnvConfig{MPA: cfg})
			count := max(min(b.N, 512), 16)
			r, err := env.Bandwidth(bench.RCSendRecv, size, count)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(size)
			b.ReportMetric(r.MBps(), "MB/s")
			b.ReportMetric(0, "ns/op")
		})
	}
}

// BenchmarkAblationCRC isolates the CRC32C cost on the RC path (the paper
// recommends disabling redundant lower-layer checksums).
func BenchmarkAblationCRC(b *testing.B) {
	const size = 256 << 10
	profiles := map[string]mpa.Config{
		"crc_on":  {},
		"crc_off": {DisableCRC: true},
	}
	for label, cfg := range profiles {
		b.Run(label, func(b *testing.B) {
			env := benchEnv(b, bench.EnvConfig{MPA: cfg})
			count := max(min(b.N, 512), 16)
			r, err := env.Bandwidth(bench.RCSendRecv, size, count)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(size)
			b.ReportMetric(r.MBps(), "MB/s")
			b.ReportMetric(0, "ns/op")
		})
	}
}

// BenchmarkAblationRUDP compares raw UD against the reliable-datagram
// (rudp) service under loss: the price of the paper's "reliable UDP"
// supplement for loss-intolerant applications.
func BenchmarkAblationRUDP(b *testing.B) {
	// Every receive is posted up front, so the message count may not
	// exceed the receive queue's depth.
	const recvDepth = 512
	net := NewSimNetwork(SimConfig{LossRate: 0.01, Seed: 3})
	mk := func(name string, reliable bool) (*Node, *UDQP) {
		n := NewNode()
		raw, err := net.OpenDatagram(name, 0)
		if err != nil {
			b.Fatal(err)
		}
		ep := Datagram(raw)
		if reliable {
			ep = Reliable(ep)
		}
		qp, err := n.OpenUD(ep, UDConfig{RecvDepth: recvDepth, BlockOnRNR: reliable})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { qp.Close() })
		return n, qp
	}
	for _, reliable := range []bool{false, true} {
		label := "raw_ud"
		if reliable {
			label = "rudp"
		}
		b.Run(label, func(b *testing.B) {
			_, aqp := mk(label+"_a", reliable)
			bn, bqp := mk(label+"_b", reliable)
			const size = 4 << 10
			count := max(min(b.N, recvDepth), 32)
			payload := make([]byte, size)
			for i := 0; i < count; i++ {
				if err := bqp.PostRecv(uint64(i%256), make([]byte, size)); err != nil {
					b.Fatal(err)
				}
			}
			delivered := 0
			done := make(chan struct{})
			go func() {
				defer close(done)
				for i := 0; i < count; i++ {
					if err := aqp.PostSend(0, bqp.LocalAddr(), VecOf(payload)); err != nil {
						return
					}
				}
			}()
			deadlineMisses := 0
			for delivered < count && deadlineMisses < 3 {
				e, err := bn.RecvCQ.Poll(200 * 1e6) // 200ms
				if err != nil {
					deadlineMisses++
					continue
				}
				if e.Type == WTRecv && e.Ok() {
					delivered++
				}
			}
			<-done
			b.ReportMetric(100*float64(delivered)/float64(count), "%delivered")
			b.ReportMetric(0, "ns/op")
		})
	}
}

// BenchmarkExtensionUDRead measures the UD RDMA Read extension (the
// paper's §VII future work, implemented here) against the standard RC
// RDMA Read at a representative size.
func BenchmarkExtensionUDRead(b *testing.B) {
	const size = 64 << 10
	env := benchEnv(b, bench.EnvConfig{})
	iters := max(min(b.N, 500), 20)
	for _, mode := range []string{"ud_read", "rc_read"} {
		b.Run(mode, func(b *testing.B) {
			s, err := env.ReadPingPong(mode == "ud_read", size, iters)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(s.Mean(), "µs/read")
			b.ReportMetric(0, "ns/op")
		})
	}
}

func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch r {
		case ' ', '/':
			out = append(out, '_')
		default:
			out = append(out, r)
		}
	}
	return string(out)
}

package rudp_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/faultnet"
	"repro/internal/rudp"
	"repro/internal/simnet"
)

// BenchmarkRDGoodputBurstLoss measures RD goodput against Gilbert–Elliott
// burst loss, sweeping the burst-entry probability. The irn rows of the
// EXPERIMENTS.md loss-recovery table are generated from this benchmark (its
// gbn rows are the recorded result of the retired go-back-N baseline); the
// rexmit/op and spurious/op metrics separate real recovery work from
// wasted resends.
func BenchmarkRDGoodputBurstLoss(b *testing.B) {
	const payload = 512
	for _, pgb := range []float64{0, 0.01, 0.02, 0.05, 0.10} {
		b.Run(fmt.Sprintf("pGB=%.2f/irn", pgb), func(b *testing.B) {
			nw := simnet.New(simnet.Config{})
			ia, err := nw.OpenDatagram("a", 0)
			if err != nil {
				b.Fatal(err)
			}
			ib, err := nw.OpenDatagram("b", 0)
			if err != nil {
				b.Fatal(err)
			}
			var ge *faultnet.GEParams
			if pgb > 0 {
				ge = &faultnet.GEParams{PGoodToBad: pgb, PBadToGood: 0.3, LossBad: 0.5}
			}
			fa := faultnet.Wrap(ia, faultnet.Config{GE: ge, Seed: 7})
			a, rx := rudp.New(fa), rudp.New(ib)
			defer a.Close()
			defer rx.Close()

			msg := make([]byte, payload)
			done := make(chan error, 1)
			go func() {
				for i := 0; i < b.N; i++ {
					if _, _, err := rx.Recv(30 * time.Second); err != nil {
						done <- err
						return
					}
				}
				done <- nil
			}()
			b.SetBytes(payload)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := a.SendTo(msg, rx.LocalAddr()); err != nil {
					b.Fatal(err)
				}
			}
			if err := a.Flush(60 * time.Second); err != nil {
				b.Fatal(err)
			}
			if err := <-done; err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			s, r := a.Snapshot(), rx.Snapshot()
			b.ReportMetric(float64(s.Retransmits)/float64(b.N), "rexmit/op")
			b.ReportMetric(float64(r.SpuriousRexmits)/float64(b.N), "spurious/op")
		})
	}
}

package sockif

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/simnet"
)

// Regression tests for the two connection-establishment races the
// concurrency-analyzer triage surfaced (run with -race; both failed before
// the fix):
//
//  1. initRC published connection state (rcqp, peer, wrMode, remoteRing,
//     slab, CQs) with plain writes after Connect dropped s.mu for the
//     blocking dial, racing the monitoring methods — Peer, Footprint,
//     Interface.Footprint — that read the same fields under s.mu. A stream
//     socket is in the interface's fd table from Socket() time, so a
//     Figure 11-style scrape walking open sockets races any concurrent
//     Connect.
//  2. The stream data path read s.rcqp (Send, Recv, repost) and s.wrMode
//     (handleInbound) with no lock at all, so a goroutine polling Recv
//     while another goroutine Connects read the fields initRC was writing.

// scrapeSocket models a telemetry scrape hitting one socket's monitoring
// surface until stop closes.
func scrapeSocket(wg *sync.WaitGroup, stop chan struct{}, ifc *Interface, s *Socket) {
	defer wg.Done()
	for {
		select {
		case <-stop:
			return
		default:
		}
		_ = s.Peer()
		_ = s.Footprint()
		_ = s.Stats()
		_ = ifc.Footprint()
	}
}

func TestConnectPublishesUnderLock(t *testing.T) {
	ifa, ifb, _ := simPair(t, simnet.Config{}, Config{})
	l, err := ifb.Listen(0)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		if s, err := l.Accept(); err == nil {
			defer s.Close()
			buf := make([]byte, 64)
			_, _ = s.Recv(buf, time.Second)
		}
	}()

	cli, err := ifa.Socket(StreamSocket)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go scrapeSocket(&wg, stop, ifa, cli)

	if err := cli.Connect(l.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := cli.Send([]byte("published")); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()

	if !cli.Peer().IsValid() {
		t.Fatal("peer not published after Connect")
	}
}

func TestDataPathReadsConnectionStateUnderLock(t *testing.T) {
	ifa, ifb, _ := simPair(t, simnet.Config{}, Config{})
	l, err := ifb.Listen(0)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		if s, err := l.Accept(); err == nil {
			defer s.Close()
			buf := make([]byte, 64)
			for {
				if _, err := s.Recv(buf, time.Second); err != nil {
					return
				}
			}
		}
	}()

	cli, err := ifa.Socket(StreamSocket)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Poll the data path through the not-yet-connected window and into
		// the connected state: both sides of the transition must be
		// synchronized with initRC's publication.
		buf := make([]byte, 64)
		for {
			select {
			case <-stop:
				return
			default:
			}
			errS := cli.Send([]byte("probe"))
			_, errR := cli.Recv(buf, time.Millisecond)
			if errS == nil && !errors.Is(errR, ErrNotConnected) {
				// Connected and pumping; keep going until told to stop so
				// the established data path overlaps the scrape below.
				continue
			}
		}
	}()

	if err := cli.Connect(l.Addr()); err != nil {
		t.Fatal(err)
	}
	// Let the poller run against the established connection briefly.
	time.Sleep(20 * time.Millisecond)
	close(stop)
	wg.Wait()
}

package simnet

import (
	"errors"
	"testing"
	"time"

	"repro/internal/transport"
)

func TestMulticastFanOut(t *testing.T) {
	n := New(Config{})
	group := GroupAddr(1)
	sender, _ := n.OpenDatagram("src", 0)
	var members []*DatagramEndpoint
	for i := 0; i < 3; i++ {
		ep, err := n.OpenDatagram("m", 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := n.Join(group, ep); err != nil {
			t.Fatal(err)
		}
		members = append(members, ep)
	}
	if n.GroupSize(group) != 3 {
		t.Fatalf("GroupSize = %d", n.GroupSize(group))
	}
	if err := sender.SendTo([]byte("to everyone"), group); err != nil {
		t.Fatal(err)
	}
	for i, m := range members {
		got, from, err := m.Recv(time.Second)
		if err != nil {
			t.Fatalf("member %d: %v", i, err)
		}
		if string(got) != "to everyone" || from != sender.LocalAddr() {
			t.Fatalf("member %d: %q from %v", i, got, from)
		}
	}
}

func TestMulticastNoSelfLoop(t *testing.T) {
	n := New(Config{})
	group := GroupAddr(2)
	a, _ := n.OpenDatagram("a", 0)
	b, _ := n.OpenDatagram("b", 0)
	n.Join(group, a)
	n.Join(group, b)
	if err := a.SendTo([]byte("x"), group); err != nil {
		t.Fatal(err)
	}
	if _, _, err := a.Recv(50 * time.Millisecond); !errors.Is(err, transport.ErrTimeout) {
		t.Fatal("sender received its own multicast")
	}
	if _, _, err := b.Recv(time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestMulticastLeave(t *testing.T) {
	n := New(Config{})
	group := GroupAddr(3)
	src, _ := n.OpenDatagram("src", 0)
	a, _ := n.OpenDatagram("a", 0)
	n.Join(group, a)
	n.Leave(group, a)
	if n.GroupSize(group) != 0 {
		t.Fatalf("GroupSize = %d after leave", n.GroupSize(group))
	}
	if err := src.SendTo([]byte("x"), group); err != nil {
		t.Fatal(err) // empty group: silently no-one
	}
	if _, _, err := a.Recv(50 * time.Millisecond); !errors.Is(err, transport.ErrTimeout) {
		t.Fatal("left member still receives")
	}
}

func TestMulticastIndependentLossLegs(t *testing.T) {
	n := New(Config{LossRate: 0.5, Seed: 4})
	group := GroupAddr(4)
	src, _ := n.OpenDatagram("src", 0)
	var members []*DatagramEndpoint
	for i := 0; i < 4; i++ {
		ep, _ := n.OpenDatagram("m", 0)
		n.Join(group, ep)
		members = append(members, ep)
	}
	const sends = 200
	for i := 0; i < sends; i++ {
		if err := src.SendTo([]byte{byte(i)}, group); err != nil {
			t.Fatal(err)
		}
	}
	// Each leg drops independently: every member should receive roughly
	// half, and the union of arrivals should differ between members.
	counts := make([]int, len(members))
	for i, m := range members {
		for {
			_, _, err := m.Recv(20 * time.Millisecond)
			if err != nil {
				break
			}
			counts[i]++
		}
	}
	for i, c := range counts {
		if c < sends/4 || c > sends*3/4 {
			t.Fatalf("member %d received %d of %d", i, c, sends)
		}
	}
	if counts[0] == counts[1] && counts[1] == counts[2] && counts[2] == counts[3] {
		t.Log("warning: identical counts across members (possible but unlikely)")
	}
}

func TestJoinRejectsUnicastAddr(t *testing.T) {
	n := New(Config{})
	a, _ := n.OpenDatagram("a", 0)
	if err := n.Join(a.LocalAddr(), a); err == nil {
		t.Fatal("joined a unicast address")
	}
	if a.LocalAddr().Addr().IsMulticast() {
		t.Fatal("unicast addr classified as group")
	}
	if !GroupAddr(9).Addr().IsMulticast() || GroupAddr(9) == GroupAddr(10) {
		t.Fatal("group addrs must be distinct IP multicast addresses")
	}
}

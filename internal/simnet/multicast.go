package simnet

import (
	"fmt"
	"net/netip"
	"sync"

	"repro/internal/transport"
)

// Multicast: the paper names "broadcast and multicast support" among the
// attractive features of datagram-iWARP ("a multicast capable iWARP
// solution would be useful in providing high bandwidth media while
// leveraging the other benefits of datagram-iWARP", §IV.A). The simulator
// models IP multicast: endpoints join a group address; a datagram sent to
// the group is delivered independently to every member, each copy subject
// to the wire model on its own leg (DatagramEndpoint.SendBatch), exactly
// like per-receiver multicast trees.
//
// The verbs layer needs no changes — a UD QP posts a send to the group
// address and every member QP sees an ordinary inbound message — which is
// precisely the scalability argument: one send, N deliveries, zero
// connections.

// GroupAddr builds the address of multicast group n: the administratively
// scoped IPv4 group 239.0.n/16, port n. Any IP multicast address names a
// group; this is a convenient numbering of them.
func GroupAddr(n uint16) transport.Addr {
	return netip.AddrPortFrom(netip.AddrFrom4([4]byte{239, 0, byte(n >> 8), byte(n)}), n)
}

type mcastState struct {
	mu     sync.Mutex
	groups map[transport.Addr]map[*DatagramEndpoint]struct{}
}

func (n *Network) mcast() *mcastState {
	n.mcastOnce.Do(func() {
		n.mcastGroups = &mcastState{groups: make(map[transport.Addr]map[*DatagramEndpoint]struct{})}
	})
	return n.mcastGroups
}

// Join subscribes ep to multicast group addr (created on first join).
func (n *Network) Join(group transport.Addr, ep *DatagramEndpoint) error {
	if !group.Addr().IsMulticast() {
		return fmt.Errorf("simnet: %s is not a multicast group address", group)
	}
	m := n.mcast()
	m.mu.Lock()
	defer m.mu.Unlock()
	set, ok := m.groups[group]
	if !ok {
		set = make(map[*DatagramEndpoint]struct{})
		m.groups[group] = set
	}
	set[ep] = struct{}{}
	return nil
}

// Leave unsubscribes ep from the group.
func (n *Network) Leave(group transport.Addr, ep *DatagramEndpoint) {
	m := n.mcast()
	m.mu.Lock()
	defer m.mu.Unlock()
	if set, ok := m.groups[group]; ok {
		delete(set, ep)
		if len(set) == 0 {
			delete(m.groups, group)
		}
	}
}

// GroupSize reports the group's current membership.
func (n *Network) GroupSize(group transport.Addr) int {
	m := n.mcast()
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.groups[group])
}

// members snapshots the group's endpoints.
func (n *Network) members(group transport.Addr) []*DatagramEndpoint {
	m := n.mcast()
	m.mu.Lock()
	defer m.mu.Unlock()
	set := m.groups[group]
	out := make([]*DatagramEndpoint, 0, len(set))
	for ep := range set {
		out = append(out, ep)
	}
	return out
}

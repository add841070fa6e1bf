package sip

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/simnet"
	"repro/internal/sockif"
	"repro/internal/transport"
)

func TestRequestRoundTrip(t *testing.T) {
	in := &Message{
		IsRequest: true,
		Method:    MethodInvite,
		URI:       "sip:bob@example.com",
		Via:       "SIP/2.0/UDP host:5060",
		From:      "<sip:alice@a>;tag=1",
		To:        "<sip:bob@b>",
		CallID:    "abc123@a",
		CSeq:      1,
		CSeqMet:   MethodInvite,
		Contact:   "<sip:alice@host>",
		Extra:     []string{"Max-Forwards: 70"},
		Body:      []byte("v=0\r\n"),
	}
	out, err := Parse(in.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !out.IsRequest || out.Method != in.Method || out.URI != in.URI ||
		out.Via != in.Via || out.From != in.From || out.To != in.To ||
		out.CallID != in.CallID || out.CSeq != 1 || out.CSeqMet != MethodInvite ||
		out.Contact != in.Contact || !bytes.Equal(out.Body, in.Body) {
		t.Fatalf("round trip mismatch: %+v", out)
	}
	if len(out.Extra) != 1 || out.Extra[0] != "Max-Forwards: 70" {
		t.Fatalf("extra headers %v", out.Extra)
	}
}

func TestResponseRoundTrip(t *testing.T) {
	req := &Message{
		IsRequest: true, Method: MethodInvite, URI: "sip:x@y",
		Via: "v", From: "f", To: "t", CallID: "c1", CSeq: 3, CSeqMet: MethodInvite,
	}
	resp := Response(req, 180, "Ringing")
	out, err := Parse(resp.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if out.IsRequest || out.Status != 180 || out.Reason != "Ringing" ||
		out.CallID != "c1" || out.CSeq != 3 || out.CSeqMet != MethodInvite {
		t.Fatalf("response %+v", out)
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("not sip at all"),
		[]byte("INVITE sip:x\r\n\r\n"),   // missing version
		[]byte("SIP/2.0 abc OK\r\n\r\n"), // bad status
		[]byte("INVITE sip:x SIP/2.0\r\nBad\r\n\r\n"), // header without colon
	}
	for i, c := range cases {
		if _, err := Parse(c); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestParseTruncatedBody(t *testing.T) {
	m := &Message{IsRequest: true, Method: MethodOptions, URI: "sip:x", Body: []byte("12345")}
	raw := m.Bytes()
	if _, err := Parse(raw[:len(raw)-2]); !errors.Is(err, ErrTruncated) {
		t.Fatalf("err = %v", err)
	}
}

func TestParseIgnoresTrailingBytes(t *testing.T) {
	m := &Message{IsRequest: true, Method: MethodOptions, URI: "sip:x", Body: []byte("ab")}
	raw := append(m.Bytes(), []byte("JUNK")...)
	out, err := Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	if string(out.Body) != "ab" {
		t.Fatalf("body %q", out.Body)
	}
}

// Property: serialise ∘ parse is the identity on well-formed header values.
func TestCodecRoundTripQuick(t *testing.T) {
	clean := func(s string) string {
		s = strings.Map(func(r rune) rune {
			if r < 32 || r > 126 || r == ':' {
				return 'x'
			}
			return r
		}, s)
		return strings.TrimSpace(s)
	}
	f := func(callID, from string, cseq uint8, body []byte) bool {
		in := &Message{
			IsRequest: true,
			Method:    MethodInvite,
			URI:       "sip:uas@server",
			Via:       "SIP/2.0/UDP client",
			From:      clean(from),
			To:        "<sip:uas@server>",
			CallID:    clean(callID),
			CSeq:      int(cseq) + 1,
			CSeqMet:   MethodInvite,
			Body:      body,
		}
		out, err := Parse(in.Bytes())
		if err != nil {
			return false
		}
		return out.CallID == in.CallID && out.From == in.From &&
			out.CSeq == in.CSeq && bytes.Equal(out.Body, in.Body)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func sipPair(t *testing.T) (*Server, *Client) {
	t.Helper()
	net := simnet.New(simnet.Config{})
	ifSrv := simSockets(net, "server", sockif.Config{})
	ifCli := simSockets(net, "client", sockif.Config{})
	ss, err := ifSrv.BindDatagram(5060)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := ifCli.Socket(sockif.DatagramSocket)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ss.Close(); cs.Close() })
	srv := NewServer(ss)
	go srv.Serve(5 * time.Second)
	return srv, NewClient(cs, ss.LocalAddr())
}

func TestBasicCallFlow(t *testing.T) {
	srv, cli := sipPair(t)
	inviteRT, total, err := cli.Call(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if inviteRT <= 0 || total < inviteRT {
		t.Fatalf("times: invite %v total %v", inviteRT, total)
	}
	st := srv.Stats()
	if st.Invites != 1 || st.Byes != 1 {
		t.Fatalf("stats %+v", st)
	}
	if srv.Calls() != 0 {
		t.Fatalf("calls leaked: %d", srv.Calls())
	}
}

func TestManySequentialCalls(t *testing.T) {
	srv, cli := sipPair(t)
	for i := 0; i < 20; i++ {
		if _, _, err := cli.Call(2 * time.Second); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if got := srv.Stats().Invites; got != 20 {
		t.Fatalf("invites = %d", got)
	}
}

func TestOptionsPing(t *testing.T) {
	srv, cli := sipPair(t)
	rt, err := cli.Options(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if rt <= 0 {
		t.Fatalf("rt = %v", rt)
	}
	if srv.Stats().Options != 1 {
		t.Fatalf("stats %+v", srv.Stats())
	}
}

func TestConcurrentDialogState(t *testing.T) {
	net := simnet.New(simnet.Config{})
	ifSrv := simSockets(net, "server", sockif.Config{})
	ss, err := ifSrv.BindDatagram(5060)
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	srv := NewServer(ss)

	// Drive INVITEs without BYEs directly through Handle: dialogs stay.
	for i := 0; i < 50; i++ {
		inv := &Message{
			IsRequest: true, Method: MethodInvite, URI: "sip:uas@s",
			Via: "v", From: "f", To: "t",
			CallID: strings.Repeat("c", 8) + string(rune('0'+i%10)) + callSuffix(i),
			CSeq:   1, CSeqMet: MethodInvite,
		}
		srv.Handle(inv.Bytes(), ss.LocalAddr())
	}
	if srv.Calls() != 50 {
		t.Fatalf("calls = %d", srv.Calls())
	}
	if fp := srv.CallFootprint(); fp < 50*160 {
		t.Fatalf("footprint = %d", fp)
	}
	if srv.Stats().Malformed != 0 {
		t.Fatalf("malformed = %d", srv.Stats().Malformed)
	}
}

func callSuffix(i int) string { return string([]byte{byte('a' + i/10%26), byte('a' + i%10)}) }

func TestServerIgnoresMalformed(t *testing.T) {
	net := simnet.New(simnet.Config{})
	ifSrv := simSockets(net, "server", sockif.Config{})
	ss, _ := ifSrv.BindDatagram(5060)
	defer ss.Close()
	srv := NewServer(ss)
	srv.Handle([]byte("complete garbage"), ss.LocalAddr())
	if srv.Stats().Malformed != 1 {
		t.Fatalf("stats %+v", srv.Stats())
	}
}

// simSockets builds a socket interface whose endpoints live on node of a
// simulated network.
func simSockets(net *simnet.Network, node string, cfg sockif.Config) *sockif.Interface {
	cfg.OpenDatagram = func(port uint16) (transport.Datagram, error) { return net.OpenDatagram(node, port) }
	cfg.Listen = func(port uint16) (transport.Listener, error) { return net.Listen(node, port) }
	cfg.Dial = func(to transport.Addr) (transport.Stream, error) { return net.Dial(node, to) }
	return sockif.New(cfg)
}

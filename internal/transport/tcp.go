package transport

import (
	"net"
)

// tcpStream adapts a kernel TCP connection to the Stream interface.
type tcpStream struct {
	conn *net.TCPConn
}

func (s *tcpStream) Read(p []byte) (int, error)  { return s.conn.Read(p) }
func (s *tcpStream) Write(p []byte) (int, error) { return s.conn.Write(p) }
func (s *tcpStream) Close() error                { return s.conn.Close() }

func (s *tcpStream) LocalAddr() Addr  { return tcpAddr(s.conn.LocalAddr()) }
func (s *tcpStream) RemoteAddr() Addr { return tcpAddr(s.conn.RemoteAddr()) }

// tcpAddr is a kernel TCP socket address as an Addr.
func tcpAddr(a net.Addr) Addr { return unmap(a.(*net.TCPAddr).AddrPort()) }

// tcpListener adapts a kernel TCP listener to the Listener interface.
type tcpListener struct {
	l *net.TCPListener
}

// ListenTCP opens a stream listener on host:port for RC-mode iWARP over
// real TCP (port 0 picks a free port; host "" binds every address).
func ListenTCP(host string, port uint16) (Listener, error) {
	l, err := net.Listen("tcp", hostPort(host, port))
	if err != nil {
		return nil, err
	}
	return &tcpListener{l: l.(*net.TCPListener)}, nil
}

func (tl *tcpListener) Accept() (Stream, error) {
	c, err := tl.l.AcceptTCP()
	if err != nil {
		return nil, err
	}
	// iWARP over TCP sends latency-critical small FPDUs; disable Nagle as
	// any RNIC or software stack would.
	_ = c.SetNoDelay(true) //diwarp:ignore errflow: socket-option tuning: the stream works (slower) without it
	return &tcpStream{conn: c}, nil
}

func (tl *tcpListener) Addr() Addr { return tcpAddr(tl.l.Addr()) }

func (tl *tcpListener) Close() error { return tl.l.Close() }

// DialTCP connects a stream to the given address for RC-mode iWARP.
func DialTCP(to Addr) (Stream, error) {
	c, err := net.DialTCP("tcp", nil, net.TCPAddrFromAddrPort(to))
	if err != nil {
		return nil, err
	}
	_ = c.SetNoDelay(true) //diwarp:ignore errflow: socket-option tuning: the stream works (slower) without it
	return &tcpStream{conn: c}, nil
}

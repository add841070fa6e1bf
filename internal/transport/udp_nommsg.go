//go:build !(linux && (amd64 || arm64))

package transport

import (
	"net"
	"time"

	"repro/internal/nio"
)

// kernelBatch is absent on platforms without the mmsg/GSO/GRO datapath:
// newKernelBatch always reports "no kernel path" and UDPEndpoint runs the
// portable one-syscall-per-datagram loop. The method set mirrors
// udp_linux.go so the call sites compile unchanged; every method sits
// behind an `e.kern != nil` gate and is unreachable here.
type kernelBatch struct{}

func newKernelBatch(*net.UDPConn, batchMode) *kernelBatch { return nil }

func (*kernelBatch) features() BatchFeatures { return BatchFeatures{} }

func (*kernelBatch) sendBatch([][]byte, Addr) (int, error) {
	panic("transport: kernel batch path unavailable on this platform")
}

func (*kernelBatch) recvBatch(*UDPEndpoint, [][]byte, []Addr, time.Duration) (int, error) {
	panic("transport: kernel batch path unavailable on this platform")
}

func (*kernelBatch) recvOne(*UDPEndpoint, time.Duration) ([]byte, Addr, error) {
	panic("transport: kernel batch path unavailable on this platform")
}

func (*kernelBatch) close(*nio.Pool) {
	panic("transport: kernel batch path unavailable on this platform")
}

package transport

import (
	"os"
	"sync"

	"repro/internal/telemetry"
)

// BatchFeatures reports which kernel batch-datapath capabilities a UDP
// endpoint is actually using, as determined by the capability probe at
// endpoint creation (DESIGN.md §4.9). Every field false means the endpoint
// runs the portable one-syscall-per-datagram path; Sendmmsg/Recvmmsg mean
// bursts go through sendmmsg(2)/recvmmsg(2); GSO means same-destination
// bursts of equal-size segments collapse into one UDP_SEGMENT send; GRO
// means the socket may deliver kernel-coalesced super-segments that the
// endpoint splits back into per-datagram buffers.
//
// The offloads imply the base syscalls: GSO is only ever set alongside
// Sendmmsg, GRO alongside Recvmmsg, because the offload paths reuse the
// mmsg machinery (and GRO split-back must intercept every receive).
type BatchFeatures struct {
	Sendmmsg bool // bursts sent via sendmmsg(2)
	Recvmmsg bool // bursts drained via recvmmsg(2)
	GSO      bool // UDP_SEGMENT segmentation offload on eligible bursts
	GRO      bool // UDP_GRO receive coalescing with split-back
}

// String renders the feature set the way iwarpd logs it.
func (f BatchFeatures) String() string {
	s := "portable"
	if f.Sendmmsg || f.Recvmmsg {
		s = "mmsg"
	}
	if f.GSO {
		s += "+gso"
	}
	if f.GRO {
		s += "+gro"
	}
	return s
}

// batchMode selects how far down the kernel batch datapath a UDP endpoint
// is allowed to go. It exists so the portable fallback stays testable on
// kernels that support everything: the capability probe can be overridden
// to force the exact code paths an unsupporting kernel would take.
type batchMode int

const (
	// batchAuto probes the kernel and uses everything that works:
	// sendmmsg/recvmmsg, then UDP_SEGMENT/UDP_GRO on top.
	batchAuto batchMode = iota
	// batchMmsg uses the batch syscalls but leaves the GSO/GRO offloads
	// off even when the kernel supports them.
	batchMmsg
	// batchPortable disables the kernel batch path entirely: one syscall
	// per datagram through the portable net.UDPConn loop.
	batchPortable
)

// envBatchMode reads the DIWARP_UDP_BATCH override once per process:
// "portable" forces the portable loop, "mmsg" caps at the batch syscalls,
// anything else (including unset) probes everything. It is the CI lever for
// running the full suite over the fallback paths on a capable kernel.
var envBatchMode = sync.OnceValue(func() batchMode {
	switch os.Getenv("DIWARP_UDP_BATCH") {
	case "portable", "off":
		return batchPortable
	case "mmsg":
		return batchMmsg
	default:
		return batchAuto
	}
})

// Batch-datapath instruments (DESIGN.md §4.9), process-wide like every
// other registry name:
//
//   - batch_syscalls: pow2 histogram of syscalls per SendBatch/RecvBatch
//     burst (the portable loop observes the burst size; one sendmmsg
//     observes 1);
//   - segs_per_syscall: pow2 histogram of datagrams moved per batch syscall
//     (burst mean — a 32-datagram sendmmsg observes 32, the portable loop
//     1), the direct measure of the syscall amortization the kernel path
//     buys;
//   - gso_enabled / gro_enabled: gauges reflecting the most recent endpoint
//     capability probe (1 = offload live, 0 = probed off or degraded at
//     runtime).
var (
	mBatchSyscalls  = telemetry.Default.Histogram("diwarp_transport_batch_syscalls")
	mSegsPerSyscall = telemetry.Default.Histogram("diwarp_transport_segs_per_syscall")
	mGSOEnabled     = telemetry.Default.Gauge("diwarp_transport_gso_enabled")
	mGROEnabled     = telemetry.Default.Gauge("diwarp_transport_gro_enabled")
)

// observeBatch records one completed burst: syscalls it took and datagrams
// it moved.
//
//diwarp:hotpath
func observeBatch(syscalls, datagrams int64) {
	if syscalls <= 0 {
		return
	}
	mBatchSyscalls.Observe(syscalls)
	mSegsPerSyscall.Observe(datagrams / syscalls)
}

// publishFeatures reflects a freshly probed endpoint's offload verdict onto
// the feature gauges.
func publishFeatures(f BatchFeatures) {
	mGSOEnabled.Set(b2i(f.GSO))
	mGROEnabled.Set(b2i(f.GRO))
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

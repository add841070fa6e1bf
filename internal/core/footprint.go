package iwarp

// Memory accounting for the paper's Figure 11 scalability comparison. Each
// QP reports the state it pins per endpoint; the difference between the two
// QP types is the paper's argument: an RC QP carries connection state
// (framing buffers, stream windows, MPA bookkeeping) that a UD QP simply
// does not have ("it does not have to keep information regarding
// connections", §IV.A).

// Estimated fixed struct-and-bookkeeping overheads, standing in for the
// RNIC context entry plus host driver state of each QP type. The RC entry
// is larger because the connection context (TCP tuple, MPA state, sequence
// tracking) lives there; the values follow typical RNIC QP context sizes
// (256 B–1 KiB class) rather than Go struct sizes, which would undercount a
// hardware realisation.
const (
	udQPOverhead = 512
	rcQPOverhead = 1024
)

// Per-message tracking state for Footprint: a claim (key, claim struct,
// validity ranges), and a Write-Record or UD Read tracker (struct and
// validity ranges). Claims hold no payload staging.
const (
	udClaimOverhead   = 160
	udTrackerOverhead = 96
)

// Footprint reports the bytes of state the UD QP currently pins: fixed
// context, posted-receive bookkeeping, reassembly claims, and Write-Record
// and Read trackers. Note what is absent: no per-peer state at all.
func (qp *UDQP) Footprint() int64 {
	n := int64(udQPOverhead)
	n += int64(qp.rq.len()) * 24 // posted WR slots
	qp.mu.Lock()
	n += int64(len(qp.claims)) * udClaimOverhead
	n += int64(len(qp.records)+len(qp.reads)) * udTrackerOverhead
	qp.mu.Unlock()
	return n
}

// Footprint reports the bytes of state the RC QP pins: fixed context,
// posted-receive bookkeeping, MPA framing buffers, and the stream's
// buffering (the simulated socket send/receive windows).
func (qp *RCQP) Footprint() int64 {
	n := int64(rcQPOverhead)
	n += int64(qp.rq.len()) * 24
	n += qp.ch.Footprint()
	return n
}

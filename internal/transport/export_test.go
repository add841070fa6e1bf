package transport

// The batch-tier lever is a test instrument, not API: these names hand it
// to the tests, including the external contract test, which runs the
// Datagram contract over every tier.

// UDPBatchMode is batchMode under test.
type UDPBatchMode = batchMode

// The tiers under test.
const (
	BatchAuto     = batchAuto
	BatchMmsg     = batchMmsg
	BatchPortable = batchPortable
)

// ListenUDPMode is listenUDPMode under test.
var ListenUDPMode = listenUDPMode

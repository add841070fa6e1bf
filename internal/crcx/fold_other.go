//go:build !amd64

package crcx

import "runtime"

// The folding kernel is amd64 assembly; elsewhere it is never selected.
func foldMissing() string { return "GOARCH=" + runtime.GOARCH }

// updateFold exists off amd64 only so the dispatch reads the same on every
// architecture; foldMissing keeps it from being chosen.
func updateFold(crc uint32, p []byte) uint32 { return updateStdlib(crc, p) }

// copyUpdateFold is updateFold's CopyUpdate counterpart, likewise never
// chosen off amd64.
func copyUpdateFold(crc uint32, dst, src []byte) uint32 { return copyUpdateStdlib(crc, dst, src) }

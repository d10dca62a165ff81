//go:build !amd64

package vec

// hasAVX2 is false off amd64: SquaredL2Bytes always runs the generic
// kernel.
const hasAVX2 = false

func squaredL2Bytes(a, b []uint8) uint32 { return squaredL2BytesGeneric(a, b) }

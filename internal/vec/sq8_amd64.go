package vec

// hasAVX2 is read once at start-up: SquaredL2Bytes takes the AVX2 body
// only when the CPU has AVX2 and the OS saves the YMM registers.
var hasAVX2 = detectAVX2()

func squaredL2Bytes(a, b []uint8) uint32 {
	if hasAVX2 {
		return squaredL2BytesAVX2(a, b)
	}
	return squaredL2BytesGeneric(a, b)
}

// squaredL2BytesAVX2 is SquaredL2Bytes for len(a) == len(b) on a CPU
// with AVX2 (sq8_amd64.s).
//
//go:noescape
func squaredL2BytesAVX2(a, b []uint8) uint32

// cpuid executes CPUID with EAX = leaf and ECX = sub.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv returns the low half of XCR0, the OS-enabled register state.
func xgetbv() (eax uint32)

func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	const xmmState, ymmState = 1 << 1, 1 << 2
	if xcr0 := xgetbv(); xcr0&(xmmState|ymmState) != xmmState|ymmState {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

package mathx

// cpuid returns the registers CPUID sets for leaf eaxArg, subleaf ecxArg.
//
//go:noescape
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv returns the low 32 bits of XCR0. Only call it when CPUID reports
// OSXSAVE.
func xgetbv() (eax uint32)

// cpuHasAVX2 is the check AVX2 documents.
func cpuHasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	const sseAndAVXState = 1<<1 | 1<<2
	if xgetbv()&sseAndAVXState != sseAndAVXState {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const avx2 = 1 << 5
	return ebx7&avx2 != 0
}

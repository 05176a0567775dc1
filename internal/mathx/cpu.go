package mathx

// The packed kernels of this module that need AVX2 — LogTo here, and the
// K=4 E-step kernels of internal/core — run only where AVX2 reports true.
// The standard library's feature bits (internal/cpu) cannot be imported,
// and golang.org/x/sys/cpu is not a dependency, so the check is made here
// once, at init, from CPUID and XGETBV (cpu_amd64.s).

// hasAVX2 is the gate's value, fixed at init.
var hasAVX2 = !avx2Disabled && cpuHasAVX2()

// AVX2 reports whether this process may run AVX2 code: the CPU has AVX
// and AVX2, and the operating system saves the YMM registers across
// context switches (OSXSAVE set, and XCR0 enabling both the SSE and the
// AVX state). It is false off amd64 and in builds tagged noavx2, which
// exist so that tests can run the code a host without AVX2 runs.
func AVX2() bool { return hasAVX2 }

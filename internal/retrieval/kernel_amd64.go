//go:build amd64 && !purego

package retrieval

// hasAVX2 reports whether this CPU and OS run the AVX2 kernel: the CPU
// has AVX and AVX2, and the OS saves the YMM registers across context
// switches (OSXSAVE set and XCR0 enabling the XMM and YMM state).
var hasAVX2 = cpuHasAVX2()

// useAVX2 selects the assembly kernel in l1x8. It starts as hasAVX2;
// only tests change it, to run the portable kernel on the same machine.
var useAVX2 = hasAVX2

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
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const avx2 = 1 << 5
	return ebx7&avx2 != 0
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// l1x8AVX2 is l1x8 in AVX2 assembly, with no bounds checks.
//
//go:noescape
func l1x8AVX2(w, q, flat []float64, offs *[8]int, out *[8]float64)

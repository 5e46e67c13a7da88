//go:build !amd64 || purego

package retrieval

// Without the assembly kernel (another architecture, or a build with the
// purego tag) every scan runs l1x8Go.
const hasAVX2 = false

var useAVX2 = false

func l1x8AVX2(w, q, flat []float64, offs *[8]int, out *[8]float64) {
	panic("retrieval: AVX2 kernel not built")
}

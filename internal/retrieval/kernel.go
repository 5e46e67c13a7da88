// The exact filter kernel. Every exact scan in this package — the dense
// scan and the predicate scan — evaluates rows in
// groups of 8 through l1x8, which computes the query-sensitive weighted
// L1 of Eq. 11 for 8 rows of a row-major flat block at once. Each row's
// result is bit-identical to metrics.WeightedL1Unchecked: the row's
// products are added in ascending dimension order, one rounding per
// multiply and per add, never fused. On amd64 with AVX2 the kernel is
// assembly (kernel_amd64.s) that keeps one row per vector lane; elsewhere
// it is the pure-Go loop below. See DESIGN.md §15.
//
// (This file extends package retrieval; the package comment lives in
// retrieval.go.)

package retrieval

import (
	"math"

	"qse/internal/space"
)

// l1x8 sets out[r] to the weighted L1 between q and the row of len(q)
// values starting at flat[offs[r]], under weights w — bit-identical to
// metrics.WeightedL1Unchecked(w, q, row) for every r. Rows may repeat.
// The bounds are checked here, once per call, because the assembly
// kernel does no checking of its own.
func l1x8(w, q, flat []float64, offs *[8]int, out *[8]float64) {
	n := len(q)
	if len(w) != n {
		panic("retrieval: kernel weights and query differ in length")
	}
	for _, o := range offs {
		if o < 0 || o > len(flat)-n {
			panic("retrieval: kernel row out of range")
		}
	}
	if useAVX2 {
		l1x8AVX2(w, q, flat, offs, out)
		return
	}
	l1x8Go(w, q, flat, offs, out)
}

// l1x8Go is the portable kernel. The explicit float64 conversion rounds
// each product before it is added, which the Go spec defines to forbid
// fusing the multiply into the add (arm64 would otherwise emit FMADD
// here; TestNoFusedMultiplyAdd checks).
func l1x8Go(w, q, flat []float64, offs *[8]int, out *[8]float64) {
	for r, o := range offs {
		x := flat[o : o+len(q)]
		var sum float64
		for j := range q {
			sum += float64(w[j] * math.Abs(q[j]-x[j]))
		}
		out[r] = sum
	}
}

// ones returns an n-long vector of ones: the weights of the unweighted L1.
// 1·|d| is exact, so the weighted kernel under ones is bit-identical to
// metrics.L1.
func ones(n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 1
	}
	return w
}

// exactScan feeds rows to l1x8 in groups of 8 and offers the results to
// a bounded top-p heap in the order the rows were queued, so the heap
// sees exactly the sequence a row-at-a-time scan would give it.
type exactScan struct {
	w, q []float64
	p    int
	h    neighborMaxHeap

	// flat is the segment whose rows row() queues; its row r sits at
	// global position posOff+r. Callers flush before switching segments.
	flat   []float64
	posOff int

	n    int
	rows [8]int
	offs [8]int
	out  [8]float64
}

// newExactScan starts a scan for the p best rows under weights (nil
// means the unweighted L1) into a fresh heap.
func newExactScan(qvec, weights []float64, p int) exactScan {
	if weights == nil {
		weights = ones(len(qvec))
	}
	return exactScan{w: weights, q: qvec, p: p, h: make(neighborMaxHeap, 0, p+1)}
}

// row queues row r of the current segment.
func (e *exactScan) row(r int) {
	e.rows[e.n&7] = r
	e.n++
	if e.n == len(e.rows) {
		e.flush()
	}
}

// flush evaluates the queued rows (padding a short group with copies of
// its first row) and offers them to the heap in queue order.
func (e *exactScan) flush() {
	if e.n == 0 {
		return
	}
	dims := len(e.q)
	for k := range e.offs {
		r := e.rows[0]
		if k < e.n {
			r = e.rows[k]
		}
		e.offs[k] = r * dims
	}
	l1x8(e.w, e.q, e.flat, &e.offs, &e.out)
	for k := 0; k < e.n; k++ {
		e.h.offer(space.Neighbor{Index: e.posOff + e.rows[k], Distance: e.out[k]}, e.p)
	}
	e.n = 0
}

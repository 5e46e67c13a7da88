package retrieval

import (
	"container/heap"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"qse/internal/metrics"
	"qse/internal/space"
)

// kernelModes lists the kernels this machine can run: the portable one
// always, the AVX2 one where the CPU has it.
func kernelModes() []bool {
	if hasAVX2 {
		return []bool{false, true}
	}
	return []bool{false}
}

func kernelName(avx2 bool) string {
	if avx2 {
		return "avx2"
	}
	return "go"
}

// forEachKernel runs f once per available kernel, with l1x8 switched to
// that kernel for the duration.
func forEachKernel(t *testing.T, f func(t *testing.T)) {
	for _, mode := range kernelModes() {
		t.Run(kernelName(mode), func(t *testing.T) {
			prev := useAVX2
			useAVX2 = mode
			defer func() { useAVX2 = prev }()
			f(t)
		})
	}
}

// sameBits reports whether a and b have the same bit pattern, except
// that any NaN matches any NaN: Go does not define which NaN an
// operation on two NaNs returns, and the scalar reference's own NaN sign
// changes with how it is compiled (coverage instrumentation flips it).
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

// checkKernel compares all 8 kernel outputs with the scalar reference.
func checkKernel(t *testing.T, w, q, flat []float64, offs *[8]int) {
	t.Helper()
	var out [8]float64
	l1x8(w, q, flat, offs, &out)
	for r, o := range offs {
		want := metrics.WeightedL1Unchecked(w, q, flat[o:o+len(q)])
		if !sameBits(out[r], want) {
			t.Fatalf("dims=%d row %d (offset %d): kernel %v (%#x), scalar %v (%#x)",
				len(q), r, o, out[r], math.Float64bits(out[r]), want, math.Float64bits(want))
		}
	}
}

// specialValue draws from the awkward corners of float64: signed zeros,
// subnormals, values near overflow, infinities, and ordinary numbers at
// wildly different scales (so rounding in the running sum matters).
func specialValue(rng *rand.Rand) float64 {
	switch rng.Intn(10) {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return math.Float64frombits(uint64(rng.Int63n(1 << 52))) // subnormal
	case 3:
		return math.MaxFloat64 * (rng.Float64() - 0.5)
	case 4:
		return math.Inf(1 - 2*rng.Intn(2))
	case 5:
		return rng.NormFloat64() * math.Pow(2, float64(rng.Intn(200)-100))
	default:
		return rng.NormFloat64()
	}
}

func TestKernelMatchesScalar(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(1))
		for dims := 1; dims <= 130; dims++ {
			for _, special := range []bool{false, true} {
				draw := func() float64 {
					if special {
						return specialValue(rng)
					}
					return rng.NormFloat64()
				}
				const rows = 11
				flat := make([]float64, rows*dims)
				for i := range flat {
					flat[i] = draw()
				}
				q := make([]float64, dims)
				w := make([]float64, dims)
				for j := range q {
					q[j] = draw()
					w[j] = math.Abs(draw())
					if rng.Intn(3) == 0 {
						w[j] = 0 // QueryWeights is ~35% exact zeros
					}
				}
				var offs [8]int
				for r := range offs {
					offs[r] = rng.Intn(rows) * dims
				}
				checkKernel(t, w, q, flat, &offs)
				checkKernel(t, ones(dims), q, flat, &offs)
			}
		}
	})
}

// TestKernelUnweightedIsL1 pins the claim the unweighted scan rests on:
// the weighted kernel under ones is bit-identical to metrics.L1.
func TestKernelUnweightedIsL1(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(2))
		for dims := 1; dims <= 70; dims++ {
			flat := make([]float64, 8*dims)
			for i := range flat {
				flat[i] = specialValue(rng)
			}
			q := make([]float64, dims)
			for j := range q {
				q[j] = specialValue(rng)
			}
			offs := [8]int{0, dims, 2 * dims, 3 * dims, 4 * dims, 5 * dims, 6 * dims, 7 * dims}
			var out [8]float64
			l1x8(ones(dims), q, flat, &offs, &out)
			for r, o := range offs {
				if want := metrics.L1(q, flat[o:o+dims]); !sameBits(out[r], want) {
					t.Fatalf("dims=%d row %d: kernel %v, L1 %v", dims, r, out[r], want)
				}
			}
		}
	})
}

func TestKernelRejectsOutOfRangeRows(t *testing.T) {
	flat := make([]float64, 4*3)
	q, w := make([]float64, 3), make([]float64, 3)
	for _, bad := range []int{-1, 10, 12} {
		offs := [8]int{0, 3, 6, 9, 0, 3, 6, bad}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("offset %d: no panic", bad)
				}
			}()
			var out [8]float64
			l1x8(w, q, flat, &offs, &out)
		}()
	}
}

// FuzzKernel8 decodes dims, weights, a query and 8 rows from raw float64
// bit patterns and checks both kernels against the scalar reference.
// NaN inputs are mapped to zero: the contract is over the non-NaN values
// embeddings and weights can hold.
func FuzzKernel8(f *testing.F) {
	seed := func(dims int, vals ...float64) []byte {
		b := []byte{byte(dims - 1)}
		for _, v := range vals {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add(seed(1, 1, 2, 3))
	f.Add(seed(5, 0.5, -1, math.Copysign(0, -1), 4e-320, 1e300, -2, math.Inf(1)))
	f.Add(seed(57, 3, 0, 1, -7, 1e-10, 2.5))
	f.Add(seed(130, math.Inf(-1), math.Inf(1), 0, 1))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 9 {
			t.Skip()
		}
		dims := 1 + int(data[0])%130
		vals := data[1:]
		n := len(vals) / 8
		next := 0
		draw := func() float64 {
			v := math.Float64frombits(binary.LittleEndian.Uint64(vals[8*(next%n):]))
			next++
			if math.IsNaN(v) {
				return 0
			}
			return v
		}
		w := make([]float64, dims)
		q := make([]float64, dims)
		flat := make([]float64, 8*dims)
		for j := range w {
			w[j] = draw()
		}
		for j := range q {
			q[j] = draw()
		}
		for i := range flat {
			flat[i] = draw()
		}
		offs := [8]int{0, dims, 2 * dims, 3 * dims, 4 * dims, 5 * dims, 6 * dims, 7 * dims}
		for _, mode := range kernelModes() {
			prev := useAVX2
			useAVX2 = mode
			checkKernel(t, w, q, flat, &offs)
			useAVX2 = prev
		}
	})
}

// refHeap is the container/heap max-heap the scans used before offer.
type refHeap []space.Neighbor

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return less(h[j], h[i]) }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(space.Neighbor)) }
func (h *refHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// TestOfferMatchesContainerHeap checks that offer leaves the heap in
// exactly the arrangement container/heap's Push/Fix produced — tied
// distances and NaN included, where a different comparison sequence
// could retain a different set.
func TestOfferMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 300; trial++ {
		p := 1 + rng.Intn(40)
		var got neighborMaxHeap
		var ref refHeap
		for i := 0; i < 1+rng.Intn(400); i++ {
			d := float64(rng.Intn(30))
			if rng.Intn(20) == 0 {
				d = math.NaN()
			}
			n := space.Neighbor{Index: rng.Intn(1000), Distance: d}
			got.offer(n, p)
			if len(ref) < p {
				heap.Push(&ref, n)
			} else if less(n, ref[0]) {
				ref[0] = n
				heap.Fix(&ref, 0)
			}
		}
		if len(got) != len(ref) {
			t.Fatalf("trial %d: %d entries, want %d", trial, len(got), len(ref))
		}
		for i := range got {
			if got[i].Index != ref[i].Index || math.Float64bits(got[i].Distance) != math.Float64bits(ref[i].Distance) {
				t.Fatalf("trial %d slot %d: %+v, want %+v", trial, i, got[i], ref[i])
			}
		}
	}
}

// TestScanBatchingMatchesScalar runs every exact-scan path — dense,
// tombstoned, predicate-matched — over row counts that leave partial
// groups of 8 at each segment's end, and compares the candidates with a
// row-at-a-time scalar ranking, weighted and unweighted.
func TestScanBatchingMatchesScalar(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(4))
		for _, n := range []int{1, 7, 8, 9, 23, 64, 100} {
			for _, dims := range []int{1, 3, 4, 5, 57} {
				db := make([][]float64, n)
				for i := range db {
					db[i] = make([]float64, dims)
					for j := range db[i] {
						db[i][j] = rng.NormFloat64()
					}
				}
				ix, err := BuildIndex(db, l2, identityEmbedder{})
				if err != nil {
					t.Fatal(err)
				}
				seg := NewSegmented(ix)
				for i := 0; i < n/3; i++ {
					v := make([]float64, dims)
					for j := range v {
						v[j] = rng.NormFloat64()
					}
					if seg, _, err = seg.Add(v); err != nil {
						t.Fatal(err)
					}
				}
				for i := 0; i < seg.Total(); i += 1 + rng.Intn(4) {
					if seg, err = seg.Remove(i); err != nil {
						t.Fatal(err)
					}
				}
				q := make([]float64, dims)
				w := make([]float64, dims)
				for j := range q {
					q[j] = rng.NormFloat64()
					w[j] = rng.Float64()
				}
				for _, weights := range [][]float64{nil, w} {
					var want []space.Neighbor
					for pos := 0; pos < seg.Total(); pos++ {
						if !seg.Alive(pos) {
							continue
						}
						d := metrics.L1(q, seg.Vector(pos))
						if weights != nil {
							d = metrics.WeightedL1Unchecked(weights, q, seg.Vector(pos))
						}
						want = append(want, space.Neighbor{Index: pos, Distance: d})
					}
					space.SortNeighbors(want)
					p := min(len(want), 1+rng.Intn(n))
					want = want[:p]
					got := seg.FilterLive(q, weights, p, false, nil)
					if len(got) != len(want) {
						t.Fatalf("n=%d dims=%d: %d candidates, want %d", n, dims, len(got), len(want))
					}
					for i := range got {
						if got[i] != want[i] || math.Float64bits(got[i].Distance) != math.Float64bits(want[i].Distance) {
							t.Fatalf("n=%d dims=%d slot %d: %+v, want %+v", n, dims, i, got[i], want[i])
						}
					}
				}
			}
		}
	})
}

// BenchmarkFilterTopP/weighted-gofallback is the root package's
// BenchmarkFilterTopP/weighted — same 20k x 64 data, same query and
// weights — forced onto the portable kernel, so a benchmark record
// carries both kernels side by side.
func BenchmarkFilterTopP(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	const n, d = 20000, 64
	db := make([][]float64, n)
	for i := range db {
		db[i] = make([]float64, d)
		for j := range db[i] {
			db[i][j] = rng.NormFloat64()
		}
	}
	ix, err := BuildIndex(db, func(a, b []float64) float64 { return metrics.L1(a, b) }, identityEmbedder{})
	if err != nil {
		b.Fatal(err)
	}
	q := make([]float64, d)
	w := make([]float64, d)
	for j := range q {
		q[j] = rng.NormFloat64()
		w[j] = rng.Float64()
	}
	b.Run("weighted-gofallback", func(b *testing.B) {
		prev := useAVX2
		useAVX2 = false
		defer func() { useAVX2 = prev }()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ix.FilterTopP(q, w, 200)
		}
	})
}

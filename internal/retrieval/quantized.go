// Quantized shadow block: an optional packed companion of a Segmented's
// float64 vectors (bits ∈ {1,2,4,8} per dimension, row-major packed so a
// 4-bit shadow stores two dimensions per byte; built from the base
// segment at quantization/compaction time, appended incrementally for
// the delta) plus the two-phase bound scan that consumes it. Phase 1
// walks the packed shadow accumulating weighted-L1 lower bounds per
// candidate row from per-query cell tables (internal/vafile) while
// maintaining the p-th smallest upper bound tau; phase 2 evaluates the
// exact float64 block only for rows whose lower bound is <= tau. The
// result is bit-identical to the exact scan by construction:
//
//   - every row with upper bound <= tau has true distance <= tau, and at
//     least p such candidate rows exist whenever tau is finite, so a row
//     excluded by lb > tau has true distance strictly above the distances
//     of >= p surviving rows — it cannot be in the top p under the
//     (distance, position) total order;
//   - surviving rows flow through the same exact kernels, heaps, and
//     merge as the unquantized scan, producing identical distances in an
//     identical order;
//   - whenever bounds cannot be trusted — a delta row encoded outside the
//     base's boundary range, a query or weight vector the tables reject,
//     fewer than p bounded candidates — the affected rows (or the whole
//     scan) fall back to exact evaluation.
//
// Tombstoned and predicate-excluded rows are excluded from phase 1
// entirely: a dead row's upper bound must never tighten tau, or it could
// evict a live row from the survivor set.
//
// This file also hosts the scan kernels themselves. The sub-byte widths
// never materialize unpacked codes: each kernel extracts fields with a
// shift-and-mask and indexes fixed-stride [16]float64 per-dimension
// tables (vafile.Tables.Tab16) with a value the compiler can prove < 16,
// so the innermost loop carries no bounds checks. The vafile package
// keeps the packed layout and the table math (property-tested and fuzzed
// in isolation); this file owns the traversal — per-row unrolling,
// early-abort, L1-sized panel blocking, and the query-batched phase 1
// behind Segmented.SearchBatch that streams the shadow once per batch
// instead of once per query.
//
// (This file extends package retrieval; the package comment lives in
// retrieval.go.)

package retrieval

import (
	"fmt"
	"math"
	"sort"
	"time"

	"qse/internal/par"
	"qse/internal/space"
	"qse/internal/vafile"
)

// quantState is one version's shadow-block state. Like the delta arrays
// it rides the persistent-data-structure discipline: Add copies the
// struct (a few words), appends packed codes to the shared backing, and
// publishes a new pointer; older versions keep reading their own
// prefixes. A nil bounds marks the dormant state — quantization is
// requested (bits recorded) but the base segment is empty, so there is
// no grid to encode against and scans stay exact until a compaction
// folds rows into a base.
type quantState struct {
	bits int
	// stride is the packed row width in bytes:
	// vafile.PackedStride(dims, bits). At 4 bits it is half the
	// dimensionality — the whole point.
	stride int
	bounds *vafile.Boundaries
	// baseShadow is the base segment's packed codes: BaseSize x stride
	// bytes, immutable like the base itself.
	baseShadow []uint8
	// deltaShadow holds the delta rows' packed codes under the same
	// shared-backing prefix discipline as deltaFlat. deltaUnsafe is
	// aligned with delta rows: true marks a row with a value outside the
	// base's boundary range, whose clamped codes yield no valid bounds —
	// the scan always evaluates such rows exactly and never lets them
	// tighten tau.
	deltaShadow []uint8
	deltaUnsafe []bool
}

// Quantize returns a copy of s carrying a bits-wide packed shadow block:
// equi-populated boundaries built from the base segment's flat block,
// packed codes for every base and delta row. Only the byte-tiling widths
// 1, 2, 4, and 8 are supported — a code never straddles a byte, which is
// what the unrolled kernels and the packed persistence format rely on.
// With an empty base the state is dormant (recorded bits, exact scans)
// until compaction. The receiver is unchanged.
func (s *Segmented[T]) Quantize(bitWidth int) (*Segmented[T], error) {
	if !vafile.PackedWidth(bitWidth) {
		return nil, fmt.Errorf("retrieval: quantize bits = %d, want 1, 2, 4, or 8", bitWidth)
	}
	n := *s
	qs := &quantState{bits: bitWidth, stride: vafile.PackedStride(s.base.dims, bitWidth)}
	if bn := s.base.Size(); bn > 0 {
		b, err := vafile.BuildBoundaries(s.base.flat, bn, s.base.dims, bitWidth)
		if err != nil {
			return nil, err
		}
		qs.bounds = b
		qs.baseShadow = b.EncodePackedBlock(s.base.flat, bn)
		qs.encodeDelta(s.deltaFlat, len(s.deltaDB))
	}
	n.quant = qs
	return &n, nil
}

// Dequantize returns a copy of s without a shadow block; scans revert to
// exact. The receiver is unchanged.
func (s *Segmented[T]) Dequantize() *Segmented[T] {
	n := *s
	n.quant = nil
	return &n
}

// QuantizeFromParts restores persisted quantization state — the boundary
// grid and the base segment's shadow codes — re-encoding the delta rows
// locally (the delta log does not carry codes; re-encoding a handful of
// delta rows is cheap and cannot diverge from what Add would have
// appended). An empty grid triggers a full rebuild via Quantize, so a
// section that recorded only the bit width still opens quantized. The
// shadow bytes are trusted to match the base vectors, like the vectors
// are trusted to match the objects; shapes, pad bits, and (for the
// legacy layout) code ranges are validated.
//
// Two base-shadow layouts open: the packed layout this version writes
// (bn x PackedStride bytes; every field of a packed row is a valid code
// by construction since cells fills the field range exactly, so only
// the pad bits after the last dimension need checking) and the legacy
// one-byte-per-dimension layout older bundles carry for sub-byte widths
// (bn x dims bytes — repacked here once at open; the shapes cannot
// collide because stride < dims exactly when bits < 8). Legacy widths
// that do not tile bytes (3, 5, 6, 7) no longer have a storage format
// and are rejected loudly.
func (s *Segmented[T]) QuantizeFromParts(bitWidth int, boundsFlat []float64, baseShadow []uint8) (*Segmented[T], error) {
	if !vafile.PackedWidth(bitWidth) {
		return nil, fmt.Errorf("retrieval: quantize bits = %d, want 1, 2, 4, or 8 (width no longer supported; re-quantize via SetQuantization)", bitWidth)
	}
	bn, d := s.base.Size(), s.base.dims
	if bn == 0 || len(boundsFlat) == 0 {
		return s.Quantize(bitWidth)
	}
	b, err := vafile.FromFlat(boundsFlat, d, bitWidth)
	if err != nil {
		return nil, err
	}
	stride := vafile.PackedStride(d, bitWidth)
	switch {
	case len(baseShadow) == bn*stride:
		if pad := stride*8 - d*bitWidth; pad > 0 {
			mask := uint8(0xff) << (8 - pad)
			for r := 0; r < bn; r++ {
				if baseShadow[(r+1)*stride-1]&mask != 0 {
					return nil, fmt.Errorf("retrieval: base shadow row %d has nonzero pad bits", r)
				}
			}
		}
	case bitWidth < 8 && len(baseShadow) == bn*d:
		cells := b.Cells()
		for i, c := range baseShadow {
			if int(c) >= cells {
				return nil, fmt.Errorf("retrieval: base shadow code %d at offset %d, want < %d cells", c, i, cells)
			}
		}
		packed := make([]uint8, bn*stride)
		for r := 0; r < bn; r++ {
			vafile.PackRow(baseShadow[r*d:(r+1)*d], bitWidth, packed[r*stride:(r+1)*stride])
		}
		baseShadow = packed
	default:
		return nil, fmt.Errorf("retrieval: base shadow has %d bytes for %d rows x %d dims at %d bits (want %d)",
			len(baseShadow), bn, d, bitWidth, bn*stride)
	}
	n := *s
	qs := &quantState{bits: bitWidth, stride: stride, bounds: b, baseShadow: baseShadow}
	qs.encodeDelta(s.deltaFlat, len(s.deltaDB))
	n.quant = qs
	return &n, nil
}

// encodeDelta (re)encodes the current delta rows against qs.bounds into
// fresh backing arrays; subsequent Adds append to them.
func (qs *quantState) encodeDelta(deltaFlat []float64, rows int) {
	d, stride := qs.bounds.Dims(), qs.stride
	qs.deltaShadow = make([]uint8, rows*stride)
	qs.deltaUnsafe = make([]bool, rows)
	for j := 0; j < rows; j++ {
		qs.deltaUnsafe[j] = !qs.bounds.EncodePacked(deltaFlat[j*d:(j+1)*d], qs.deltaShadow[j*stride:(j+1)*stride])
	}
}

// appendRow returns a copy of qs with one delta row's packed codes
// appended — the shadow half of AddWithVectorMeta, same prefix
// discipline.
func (qs *quantState) appendRow(v []float64, dims int) *quantState {
	n := *qs
	if qs.bounds == nil {
		return &n
	}
	off := len(qs.deltaShadow)
	n.deltaShadow = append(qs.deltaShadow, make([]uint8, qs.stride)...)
	ok := qs.bounds.EncodePacked(v, n.deltaShadow[off:off+qs.stride])
	n.deltaUnsafe = append(qs.deltaUnsafe, !ok)
	return &n
}

// QuantBits returns the shadow block's bit width (0 when quantization is
// off).
func (s *Segmented[T]) QuantBits() int {
	if s.quant == nil {
		return 0
	}
	return s.quant.bits
}

// QuantBounds returns the persisted shape of the boundary grid (nil when
// quantization is off or dormant). Callers must not modify it.
func (s *Segmented[T]) QuantBounds() []float64 {
	if s.quant == nil || s.quant.bounds == nil {
		return nil
	}
	return s.quant.bounds.Flat()
}

// BaseShadow returns the base segment's packed shadow codes (nil when
// quantization is off or dormant) — the persist shape QuantizeFromParts
// restores. Callers must not modify it.
func (s *Segmented[T]) BaseShadow() []uint8 {
	if s.quant == nil || s.quant.bounds == nil {
		return nil
	}
	return s.quant.baseShadow
}

// ShadowBytes returns the packed shadow block's total footprint in bytes
// across base and delta (0 when quantization is off or dormant) — the
// memory phase 1 streams per query, surfaced as a gauge so width changes
// are observable.
func (s *Segmented[T]) ShadowBytes() int {
	if s.quant == nil || s.quant.bounds == nil {
		return 0
	}
	return len(s.quant.baseShadow) + len(s.quant.deltaShadow)
}

// boundPrune is phase 1's verdict, consumed by the exact candidate
// scan: the candidate rows (ascending global position) with their lower
// bounds, and the pruning threshold tau (the p-th smallest candidate
// upper bound; +Inf when fewer than p candidates had valid bounds). A
// row missing from cands was excluded against an intermediate heap top,
// which only ever shrinks toward tau — so the exclusion already holds
// against tau, and phase 2 only needs the final clbs[i] > tau filter
// for rows admitted early. Rows without valid bounds (unsafe delta
// rows) are admitted with a zero lower bound, which never prunes.
type boundPrune struct {
	cands []int32
	clbs  []float64
	tau   float64
}

// ubHeap is a max-heap over upper bounds, retaining the p smallest seen
// within one scan partition.
type ubHeap []float64

func (h ubHeap) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if h[parent] >= h[i] {
			return
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (h ubHeap) siftDown() {
	i := 0
	for {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		big := l
		if r := l + 1; r < len(h) && h[r] > h[l] {
			big = r
		}
		if h[big] <= h[i] {
			return
		}
		h[i], h[big] = h[big], h[i]
		i = big
	}
}

// rowKernel is one query's bound kernels over one packed shadow row,
// built once per (query, width) by newKernel so the per-row dispatch is
// a single indirect call instead of a width switch inside the scan.
type rowKernel struct {
	// lowerBounded returns a valid lower bound and whether it is <=
	// bound, aborting early (+Inf, false) once the partial sum already
	// crosses it.
	lowerBounded func(row []uint8, bound float64) (lb float64, within bool)
	// lower is the unconditional lower bound, used while the tau heap is
	// still filling.
	lower func(row []uint8) float64
	// upper is the row's upper bound (tau candidates).
	upper func(row []uint8) float64
	// tableBytes is the resident size of the bound tables behind the
	// three closures — what one query contributes to cache pressure when
	// the batched traversal interleaves several queries over one panel.
	tableBytes int
}

// newKernel builds the packed-width kernels for one query's tables. An
// 8-bit packed row is one byte per dimension, so the vafile row methods
// (with their own 8-codes-per-load fast path) apply directly; the
// sub-byte widths run the shift-and-mask kernels below over the
// fixed-stride [16]float64 tables. The reordering-slack discipline is
// identical to Tables.RowLowerBounded/RowUpper: the reassociated sum is
// compared against bound*inv, a returned lower bound is discounted by
// mrel, an upper bound padded by it — so every bound the kernels emit
// brackets the exact kernel's sequentially-rounded distance.
func newKernel(t *vafile.Tables, bits int) rowKernel {
	if bits == 8 {
		// Full 256-cell lower and upper tables, dims entries each.
		return rowKernel{
			lowerBounded: t.RowLowerBounded, lower: t.RowLower, upper: t.RowUpper,
			tableBytes: t.Dims() * 256 * 8 * 2,
		}
	}
	var sum func(t16 [][16]float64, row []uint8, stop float64) (float64, bool)
	switch bits {
	case 4:
		sum = sumPacked4
	case 2:
		sum = sumPacked2
	default:
		sum = sumPacked1
	}
	lb16, ub16 := t.Tab16()
	mrel, inv := t.Slack()
	return rowKernel{
		tableBytes: t.Dims() * 16 * 8 * 2,
		lowerBounded: func(row []uint8, bound float64) (float64, bool) {
			s, aborted := sum(lb16, row, bound*inv)
			if aborted {
				return math.Inf(1), false
			}
			lb := s - float64(s*mrel)
			if lb < 0 {
				lb = 0
			}
			return lb, lb <= bound
		},
		lower: func(row []uint8) float64 {
			s, _ := sum(lb16, row, math.Inf(1))
			lb := s - float64(s*mrel)
			if lb < 0 {
				lb = 0
			}
			return lb
		},
		upper: func(row []uint8) float64 {
			s, _ := sum(ub16, row, math.Inf(1))
			return s + float64(s*mrel)
		},
	}
}

// sumPacked4 sums one [16]float64 table entry per dimension over a 4-bit
// packed row (two dimensions per byte, low nibble first), aborting once
// the partial sum exceeds stop. Four independent accumulators break the
// float-add dependency chain; the main loop covers sixteen dimensions
// (eight bytes) per exit check. Re-slicing the tables and the row to
// fixed-length windows plus the provably-<16 nibble indices eliminate
// every bounds check from the loop body.
func sumPacked4(t16 [][16]float64, row []uint8, stop float64) (float64, bool) {
	var s0, s1, s2, s3 float64
	dims := len(t16)
	i, d := 0, 0
	for ; d+16 <= dims; i, d = i+8, d+16 {
		t := t16[d : d+16 : d+16]
		r := row[i : i+8 : i+8]
		b := r[0]
		s0 += t[0][b&15]
		s1 += t[1][b>>4]
		b = r[1]
		s2 += t[2][b&15]
		s3 += t[3][b>>4]
		b = r[2]
		s0 += t[4][b&15]
		s1 += t[5][b>>4]
		b = r[3]
		s2 += t[6][b&15]
		s3 += t[7][b>>4]
		b = r[4]
		s0 += t[8][b&15]
		s1 += t[9][b>>4]
		b = r[5]
		s2 += t[10][b&15]
		s3 += t[11][b>>4]
		b = r[6]
		s0 += t[12][b&15]
		s1 += t[13][b>>4]
		b = r[7]
		s2 += t[14][b&15]
		s3 += t[15][b>>4]
		if s0+s1+s2+s3 > stop {
			return 0, true
		}
	}
	for ; d+2 <= dims; i, d = i+1, d+2 {
		b := row[i]
		s0 += t16[d][b&15]
		s1 += t16[d+1][b>>4]
	}
	if d < dims {
		// Odd dimension count: the last byte's high nibble is padding.
		s0 += t16[d][row[i]&15]
	}
	s := s0 + s1 + s2 + s3
	return s, s > stop
}

// sumPacked2 is sumPacked4 at 2 bits: four dimensions per byte, sixteen
// dimensions (four bytes) per exit check.
func sumPacked2(t16 [][16]float64, row []uint8, stop float64) (float64, bool) {
	var s0, s1, s2, s3 float64
	dims := len(t16)
	i, d := 0, 0
	for ; d+16 <= dims; i, d = i+4, d+16 {
		t := t16[d : d+16 : d+16]
		r := row[i : i+4 : i+4]
		b := r[0]
		s0 += t[0][b&3]
		s1 += t[1][(b>>2)&3]
		s2 += t[2][(b>>4)&3]
		s3 += t[3][b>>6]
		b = r[1]
		s0 += t[4][b&3]
		s1 += t[5][(b>>2)&3]
		s2 += t[6][(b>>4)&3]
		s3 += t[7][b>>6]
		b = r[2]
		s0 += t[8][b&3]
		s1 += t[9][(b>>2)&3]
		s2 += t[10][(b>>4)&3]
		s3 += t[11][b>>6]
		b = r[3]
		s0 += t[12][b&3]
		s1 += t[13][(b>>2)&3]
		s2 += t[14][(b>>4)&3]
		s3 += t[15][b>>6]
		if s0+s1+s2+s3 > stop {
			return 0, true
		}
	}
	for ; d+4 <= dims; i, d = i+1, d+4 {
		b := row[i]
		s0 += t16[d][b&3]
		s1 += t16[d+1][(b>>2)&3]
		s2 += t16[d+2][(b>>4)&3]
		s3 += t16[d+3][b>>6]
	}
	if d < dims {
		b := row[i]
		for sh := 0; d < dims; d, sh = d+1, sh+2 {
			s0 += t16[d][(b>>sh)&3]
		}
	}
	s := s0 + s1 + s2 + s3
	return s, s > stop
}

// sumPacked1 is sumPacked4 at 1 bit: eight dimensions per byte, sixteen
// dimensions (two bytes) per exit check.
func sumPacked1(t16 [][16]float64, row []uint8, stop float64) (float64, bool) {
	var s0, s1, s2, s3 float64
	dims := len(t16)
	i, d := 0, 0
	for ; d+16 <= dims; i, d = i+2, d+16 {
		t := t16[d : d+16 : d+16]
		b := row[i]
		s0 += t[0][b&1]
		s1 += t[1][(b>>1)&1]
		s2 += t[2][(b>>2)&1]
		s3 += t[3][(b>>3)&1]
		s0 += t[4][(b>>4)&1]
		s1 += t[5][(b>>5)&1]
		s2 += t[6][(b>>6)&1]
		s3 += t[7][b>>7]
		b = row[i+1]
		s0 += t[8][b&1]
		s1 += t[9][(b>>1)&1]
		s2 += t[10][(b>>2)&1]
		s3 += t[11][(b>>3)&1]
		s0 += t[12][(b>>4)&1]
		s1 += t[13][(b>>5)&1]
		s2 += t[14][(b>>6)&1]
		s3 += t[15][b>>7]
		if s0+s1+s2+s3 > stop {
			return 0, true
		}
	}
	for ; d+8 <= dims; i, d = i+1, d+8 {
		b := row[i]
		s0 += t16[d][b&1]
		s1 += t16[d+1][(b>>1)&1]
		s2 += t16[d+2][(b>>2)&1]
		s3 += t16[d+3][(b>>3)&1]
		s0 += t16[d+4][(b>>4)&1]
		s1 += t16[d+5][(b>>5)&1]
		s2 += t16[d+6][(b>>6)&1]
		s3 += t16[d+7][b>>7]
	}
	if d < dims {
		b := row[i]
		for sh := 0; d < dims; d, sh = d+1, sh+1 {
			s0 += t16[d][(b>>sh)&1]
		}
	}
	s := s0 + s1 + s2 + s3
	return s, s > stop
}

// shadowView is the non-generic slice of a Segmented the screening loop
// needs: the packed shadow blocks, liveness/match bitmaps, and the
// base/delta split. Extracting it lets the row loop and the panel
// traversal be shared verbatim between the single-query and the batched
// phase 1.
type shadowView struct {
	bn, stride              int
	baseShadow, deltaShadow []uint8
	deltaUnsafe             []bool
	baseDead, deltaDead     bitmap
	matchBase, matchDelta   bitmap
	useMatch                bool
}

func (s *Segmented[T]) shadowView(matchBase, matchDelta bitmap, useMatch bool) *shadowView {
	qs := s.quant
	return &shadowView{
		bn: s.base.Size(), stride: qs.stride,
		baseShadow: qs.baseShadow, deltaShadow: qs.deltaShadow, deltaUnsafe: qs.deltaUnsafe,
		baseDead: s.baseDead, deltaDead: s.deltaDead,
		matchBase: matchBase, matchDelta: matchDelta, useMatch: useMatch,
	}
}

// screenState is one (query, partition) phase-1 accumulator: the tau
// heap, the admitted candidates with their lower bounds, and the scanned
// count. screenRange advances it over a row range; partitions merge in
// partition order via mergeScreenParts.
type screenState struct {
	kern    rowKernel
	p       int
	ubs     ubHeap
	cands   []int32
	clbs    []float64
	scanned int64
}

// screenRange screens rows [lo, hi) in ascending position order into st.
// Because the state machine is sequential in position, splitting a range
// into consecutive sub-ranges (as the panel traversal does) leaves the
// result byte-identical to one unbroken pass.
func (v *shadowView) screenRange(st *screenState, lo, hi int) {
	stride := v.stride
	for pos := lo; pos < hi; pos++ {
		var row []uint8
		if pos < v.bn {
			if v.useMatch {
				if !v.matchBase.get(pos) {
					continue
				}
			} else if v.baseDead.get(pos) {
				continue
			}
			row = v.baseShadow[pos*stride : pos*stride+stride]
		} else {
			j := pos - v.bn
			if v.useMatch {
				if !v.matchDelta.get(j) {
					continue
				}
			} else if v.deltaDead.get(j) {
				continue
			}
			if v.deltaUnsafe[j] {
				// No valid bounds: admit unconditionally with a zero
				// lower bound (never pruned, always evaluated) and keep
				// its upper bound out of tau.
				st.scanned++
				st.cands = append(st.cands, int32(pos))
				st.clbs = append(st.clbs, 0)
				continue
			}
			row = v.deltaShadow[j*stride : j*stride+stride]
		}
		st.scanned++
		if len(st.ubs) < st.p {
			st.cands = append(st.cands, int32(pos))
			st.clbs = append(st.clbs, st.kern.lower(row))
			st.ubs = append(st.ubs, st.kern.upper(row))
			st.ubs.siftUp(len(st.ubs) - 1)
			continue
		}
		// The heap top only shrinks toward the final tau, so a lower
		// bound crossing it — whether the full sum or a partial sum
		// lowerBounded aborts on — already crosses tau, and the row
		// can be dropped here instead of re-filtered in phase 2. The
		// exclusion set stays identical for any partitioning: a row
		// surviving to phase 2 under one partitioning has full bound
		// <= tau <= every intermediate heap top of any other, so it is
		// admitted everywhere, and droppable rows are droppable
		// everywhere by the same dominance. ub >= lb, so a dropped row
		// cannot improve the heap either, skipping the second table
		// pass.
		lb, within := st.kern.lowerBounded(row, st.ubs[0])
		if !within {
			continue
		}
		st.cands = append(st.cands, int32(pos))
		st.clbs = append(st.clbs, lb)
		if ub := st.kern.upper(row); ub < st.ubs[0] {
			st.ubs[0] = ub
			st.ubs.siftDown()
		}
	}
}

// screenPanelBytes is the shadow panel size for the batched traversal:
// small enough that a panel plus one query's 16-cell lower-bound table
// (dims x 128 bytes) stays L1-resident while the inner query loop
// revisits the panel.
const screenPanelBytes = 16 << 10

// screenTableBudget caps how many queries' bound tables the batched
// traversal keeps hot at once. The panel inner loop cycles its group's
// tables on every panel, so the whole group must fit in cache next to
// the panel itself — past that point the tables evict each other every
// panel and the batched pass moves more bytes than the solo scans it
// replaces (an 8-bit query at 64 dims carries 256 KiB of tables; the
// 16-cell sub-byte tables are 16 KiB). Queries beyond the budget form
// further groups, each re-streaming the shadow once — still 1/group of
// the per-query traffic.
const screenTableBudget = 256 << 10

// screenPanels screens rows [lo, hi) for every state. With one state
// (the single-query scan) the pass is a plain stream — blocking buys
// nothing without reuse. With several (the batched phase 1) the states
// are cut into groups whose bound tables fit screenTableBudget, the
// range into L1-sized panels of packed rows, and each panel is screened
// for the whole group before moving on, so the shadow is pulled from
// memory once per (group, partition) instead of once per (query,
// partition). Each query still visits rows in ascending position order,
// so its state machine — and its candidates and tau — are byte-identical
// to a solo scan.
func (v *shadowView) screenPanels(states []*screenState, lo, hi int) {
	group := len(states)
	if tb := states[0].kern.tableBytes; tb > 0 && group > 1 {
		if g := screenTableBudget / tb; g < group {
			group = g
			if group < 1 {
				group = 1
			}
		}
	}
	rows := screenPanelBytes / v.stride
	if rows < 64 {
		rows = 64
	}
	for gs := 0; gs < len(states); gs += group {
		ge := gs + group
		if ge > len(states) {
			ge = len(states)
		}
		if ge-gs == 1 {
			v.screenRange(states[gs], lo, hi)
			continue
		}
		for plo := lo; plo < hi; plo += rows {
			phi := plo + rows
			if phi > hi {
				phi = hi
			}
			for _, st := range states[gs:ge] {
				v.screenRange(st, plo, phi)
			}
		}
	}
}

// mergeScreenParts folds per-partition screen states (ascending position
// ranges, partition order) into phase 1's verdict. The partition merge
// takes the p-th smallest of the per-partition p-smallest upper bounds,
// which equals the global p-th smallest, so tau (and the whole scan) is
// identical for any partitioning; concatenating candidate lists in
// partition order keeps global positions ascending — phase 2 evaluates
// rows in exactly the order the exact scan would.
func mergeScreenParts(parts []*screenState, p int, clk *FilterClock) *boundPrune {
	var scanned int64
	nc := 0
	merged := make([]float64, 0, len(parts)*p)
	for _, pt := range parts {
		scanned += pt.scanned
		nc += len(pt.cands)
		merged = append(merged, pt.ubs...)
	}
	clk.AddBoundRows(scanned)
	pr := &boundPrune{
		cands: make([]int32, 0, nc),
		clbs:  make([]float64, 0, nc),
		tau:   math.Inf(1),
	}
	for _, pt := range parts {
		pr.cands = append(pr.cands, pt.cands...)
		pr.clbs = append(pr.clbs, pt.clbs...)
	}
	if len(merged) >= p {
		sort.Float64s(merged)
		pr.tau = merged[p-1]
	}
	return pr
}

// boundScan is phase 1 for one query: walk the packed shadow of every
// candidate row (live rows, or the match bitsets when useMatch),
// accumulate lower bounds, and derive tau. Returns nil — exact scan, no
// pruning — when quantization is off/dormant or the query cannot support
// valid bounds.
func (s *Segmented[T]) boundScan(qvec, weights []float64, p int, parallel bool, clk *FilterClock, matchBase, matchDelta bitmap, useMatch bool) *boundPrune {
	qs := s.quant
	if qs == nil || qs.bounds == nil {
		return nil
	}
	tbl, ok := qs.bounds.QueryTables(qvec, weights)
	if !ok {
		return nil
	}
	total := s.Total()
	if total > math.MaxInt32 {
		return nil
	}
	kern := newKernel(&tbl, qs.bits)
	v := s.shadowView(matchBase, matchDelta, useMatch)
	var parts []*screenState
	if !parallel || total < minParallelScan {
		st := &screenState{kern: kern, p: p}
		v.screenPanels([]*screenState{st}, 0, total)
		parts = []*screenState{st}
	} else {
		w := par.Workers()
		all := make([]*screenState, w)
		shards := par.Shards(w, total, minParallelScan, func(sh, lo, hi int) {
			st := &screenState{kern: kern, p: p}
			all[sh] = st
			v.screenPanels([]*screenState{st}, lo, hi)
		})
		parts = all[:shards]
	}
	return mergeScreenParts(parts, p, clk)
}

// boundScanBatch is phase 1 for a query batch: per-query bound tables
// are built up front, then one partitioned pass over the packed shadow
// screens each panel of rows against every query (screenPanels), so the
// shadow block is streamed from memory once per partition instead of
// once per query. Per query the verdict — candidates, lower bounds, tau
// — is byte-identical to boundScan's, because its rows are visited in
// the same ascending order by the same state machine; only the traversal
// interleaving differs, which the per-query state never observes.
//
// out[i] is nil — that query falls back to the per-query path — when its
// embedding failed (nil qvec) or its tables were rejected; the whole
// batch returns nils when quantization is off/dormant or the position
// space is too large, exactly the boundScan fallbacks.
func (s *Segmented[T]) boundScanBatch(qvecs, weightsList [][]float64, p int, parallel bool, clks []*FilterClock) []*boundPrune {
	out := make([]*boundPrune, len(qvecs))
	qs := s.quant
	if qs == nil || qs.bounds == nil || p <= 0 {
		return out
	}
	total := s.Total()
	if total > math.MaxInt32 {
		return out
	}
	kerns := make([]rowKernel, len(qvecs))
	active := make([]int, 0, len(qvecs))
	for i, qv := range qvecs {
		if qv == nil {
			continue
		}
		tbl, ok := qs.bounds.QueryTables(qv, weightsList[i])
		if !ok {
			continue
		}
		kerns[i] = newKernel(&tbl, qs.bits)
		active = append(active, i)
	}
	if len(active) == 0 {
		return out
	}
	v := s.shadowView(nil, nil, false)
	newStates := func() []*screenState {
		sts := make([]*screenState, len(active))
		for ai, qi := range active {
			sts[ai] = &screenState{kern: kerns[qi], p: p}
		}
		return sts
	}
	var partStates [][]*screenState
	if !parallel || total < minParallelScan {
		sts := newStates()
		v.screenPanels(sts, 0, total)
		partStates = [][]*screenState{sts}
	} else {
		w := par.Workers()
		all := make([][]*screenState, w)
		shards := par.Shards(w, total, minParallelScan, func(sh, lo, hi int) {
			sts := newStates()
			all[sh] = sts
			v.screenPanels(sts, lo, hi)
		})
		partStates = all[:shards]
	}
	parts := make([]*screenState, len(partStates))
	for ai, qi := range active {
		for pi := range partStates {
			parts[pi] = partStates[pi][ai]
		}
		out[qi] = mergeScreenParts(parts, p, clks[qi])
	}
	return out
}

// searchBatchQuantized is Segmented.SearchBatch's quantized pipeline:
// embed every query, run the shared batched phase 1 (one streaming pass
// over the shadow for the whole batch), then finish each query — phase
// 2, merge, refine — independently across the worker pool. Per-query
// results and stats are bit-identical to the serial per-query path: the
// batched phase 1 produces the same candidates and tau (see
// boundScanBatch), and everything downstream of it is the same code the
// per-query path runs.
func (s *Segmented[T]) searchBatchQuantized(queries []T, k, p int) ([][]space.Neighbor, []Stats, error) {
	nq := len(queries)
	results := make([][]space.Neighbor, nq)
	stats := make([]Stats, nq)
	errs := make([]error, nq)
	qvecs := make([][]float64, nq)
	weightsList := make([][]float64, nq)
	embedNs := make([]int64, nq)
	par.For(nq, 2, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			t0 := time.Now()
			qv := s.base.embedder.Embed(queries[i])
			if len(qv) != s.base.dims {
				errs[i] = QueryDimsError(len(qv), s.base.dims)
				continue
			}
			if w, ok := s.base.embedder.(Weighter); ok {
				weightsList[i] = w.QueryWeights(qv)
			}
			qvecs[i] = qv
			embedNs[i] = time.Since(t0).Nanoseconds()
		}
	})
	pEff := p
	if live := s.Live(); pEff > live {
		pEff = live
	}
	clks := make([]*FilterClock, nq)
	for i := range clks {
		clks[i] = new(FilterClock)
	}
	prunes := make([]*boundPrune, nq)
	var boundShare int64
	if pEff > 0 {
		t0 := time.Now()
		prunes = s.boundScanBatch(qvecs, weightsList, pEff, true, clks)
		elapsed := time.Since(t0).Nanoseconds()
		active := 0
		for _, pr := range prunes {
			if pr != nil {
				active++
			}
		}
		if active > 0 {
			// The shared pass's wall time, attributed evenly: timing is
			// observability only, outside the bit-identity contract.
			boundShare = elapsed / int64(active)
		}
	}
	par.For(nq, 2, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if errs[i] != nil {
				continue
			}
			share := int64(0)
			if prunes[i] != nil {
				share = boundShare
			}
			results[i], stats[i], errs[i] = s.finishQuantized(queries[i], qvecs[i], weightsList[i], k, p, prunes[i], clks[i], embedNs[i], share)
		}
	})
	return firstBatchError(results, stats, errs)
}

// finishQuantized completes one batched query after the shared phase 1:
// phase 2 over its candidate list, merge, refine, stats — the exact tail
// of searchPred, with the embed and bound-scan timings carried in. A nil
// pr (tables rejected, quantization raced off, or pEff hit zero) falls
// back to filterTopP, which re-derives the right path — the same
// fallback the serial scan takes.
func (s *Segmented[T]) finishQuantized(q T, qvec, weights []float64, k, p int, pr *boundPrune, clk *FilterClock, embedNanos, boundNanos int64) ([]space.Neighbor, Stats, error) {
	var t Timing
	t.EmbedNanos = embedNanos
	var candidates []space.Neighbor
	if pr == nil {
		candidates = s.filterTopP(qvec, weights, p, false, clk)
	} else {
		if live := s.Live(); p > live {
			p = live
		}
		clk.AddBound(boundNanos)
		heaps := s.scanCandidateChunks(qvec, weights, p, false, pr, clk)
		t0 := time.Now()
		candidates = mergeTopP(heaps, p)
		clk.AddMerge(time.Since(t0).Nanoseconds())
	}
	clk.AddTo(&t)
	t0 := time.Now()
	refined := make([]space.Neighbor, len(candidates))
	for i, c := range candidates {
		refined[i] = space.Neighbor{Index: c.Index, Distance: s.base.dist(q, s.Object(c.Index))}
	}
	space.SortNeighbors(refined)
	t.RefineNanos = time.Since(t0).Nanoseconds()
	if k > len(refined) {
		k = len(refined)
	}
	stats := Stats{
		EmbedDistances:  s.base.embedder.EmbedCost(),
		RefineDistances: len(candidates),
		Timing:          t,
	}
	return refined[:k], stats, nil
}

// scanCandidateChunks runs phase 2 over the full candidate list,
// chunked across workers when it is long enough to parallelize, and
// returns the per-chunk heaps for mergeTopP.
func (s *Segmented[T]) scanCandidateChunks(qvec, weights []float64, p int, parallel bool, pr *boundPrune, clk *FilterClock) []neighborMaxHeap {
	n := len(pr.cands)
	if !parallel || n < minParallelScan {
		return []neighborMaxHeap{s.scanCandidates(qvec, weights, p, pr, 0, n, clk)}
	}
	w := par.Workers()
	all := make([]neighborMaxHeap, w)
	shards := par.Shards(w, n, minParallelScan, func(sh, lo, hi int) {
		all[sh] = s.scanCandidates(qvec, weights, p, pr, lo, hi, clk)
	})
	return all[:shards]
}

// scanCandidates is phase 2 over one chunk [lo, hi) of the candidate
// list: each candidate still within the final tau is evaluated exactly
// against its segment's float64 block, through the same kernels and heap
// discipline as the unpruned scan. Candidates are ascending by global
// position, so one binary search splits the chunk at the base/delta
// boundary for the per-segment stage timers. Chunking the candidate
// list is as partition-safe as chunking the position space: mergeTopP
// is order- and partition-agnostic.
func (s *Segmented[T]) scanCandidates(qvec, weights []float64, p int, pr *boundPrune, lo, hi int, clk *FilterClock) neighborMaxHeap {
	e := newExactScan(qvec, weights, p)
	bn := s.base.Size()
	split := lo + sort.Search(hi-lo, func(i int) bool { return int(pr.cands[lo+i]) >= bn })
	evald := 0
	if clk == nil {
		evald += scanCandRows(&e, s.base.flat, 0, pr, lo, split)
		evald += scanCandRows(&e, s.deltaFlat, bn, pr, split, hi)
		return e.h
	}
	if lo < split {
		t0 := time.Now()
		evald += scanCandRows(&e, s.base.flat, 0, pr, lo, split)
		clk.AddBase(time.Since(t0).Nanoseconds())
	}
	if split < hi {
		t0 := time.Now()
		evald += scanCandRows(&e, s.deltaFlat, bn, pr, split, hi)
		clk.AddDelta(time.Since(t0).Nanoseconds())
	}
	clk.AddBoundExact(int64(evald))
	return e.h
}

// scanCandRows feeds the scan candidates [lo, hi) — all in the one
// segment whose flat block starts at global position posOff — skipping
// entries whose lower bound exceeds tau, and returns how many rows it
// evaluated.
func scanCandRows(e *exactScan, flat []float64, posOff int, pr *boundPrune, lo, hi int) int {
	e.flat, e.posOff = flat, posOff
	evald := 0
	for i := lo; i < hi; i++ {
		if pr.clbs[i] > pr.tau {
			continue
		}
		e.row(int(pr.cands[i]) - posOff)
		evald++
	}
	e.flush()
	return evald
}

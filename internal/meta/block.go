// Block is the columnar metadata layout of a base segment: one typed
// array per field plus a presence bitset, built when a segment is
// compacted (or a bundle reopens) and immutable afterwards — the same
// lifecycle as the base vector block it sits beside. Delta rows stay
// row-oriented Maps; only the compacted base pays for columns, which is
// where the rows (and the wins of columnar evaluation and the per-field
// value index) are.
package meta

import (
	"math/bits"
	"strconv"
	"sync"
)

// Column is one field's values across a block's rows: a presence bitset
// and a dense array of the field's kind. Absent rows hold the zero
// value and a clear presence bit. Strings are dictionary-coded: a row
// holds an index into dict, the column's distinct values, so a sweep
// evaluates a leaf once per distinct string rather than once per row.
type column struct {
	kind    Kind
	present []uint64
	ints    []int64
	flts    []float64
	codes   []uint32 // KindString: index into dict
	dict    []string
	bools   []uint64 // value bitset for KindBool

	dictIdx map[string]uint32 // dict's inverse, only while NewBlock builds

	// idx maps an eq-comparable value key to the ascending rows holding
	// it — the bitmap plan's posting lists. Built lazily under once so a
	// store that never sees a selective equality filter never pays for
	// it; the block is immutable, so the build is safe to race-gate.
	once sync.Once
	idx  map[string][]int32
}

// Block holds the columns of one base segment. A nil *Block is the
// canonical "no metadata" block: every row reads as an empty Map.
type Block struct {
	rows int
	cols map[string]*column
}

// NewBlock builds a columnar block from per-row records (row i's
// metadata is rows[i]; nil entries are rows without metadata). It
// returns nil when no row carries any metadata, so the metadata-less
// store keeps its exact pre-metadata representation.
func NewBlock(rows []Map) *Block {
	var cols map[string]*column
	for i, m := range rows {
		for field, v := range m {
			if cols == nil {
				cols = make(map[string]*column)
			}
			c, ok := cols[field]
			if !ok {
				c = newColumn(v.Kind, len(rows))
				cols[field] = c
			}
			c.set(i, v)
		}
	}
	if cols == nil {
		return nil
	}
	for _, c := range cols {
		c.dictIdx = nil
	}
	return &Block{rows: len(rows), cols: cols}
}

func newColumn(kind Kind, rows int) *column {
	c := &column{kind: kind, present: make([]uint64, (rows+63)/64)}
	switch kind {
	case KindInt:
		c.ints = make([]int64, rows)
	case KindFloat:
		c.flts = make([]float64, rows)
	case KindString:
		c.codes = make([]uint32, rows)
		c.dictIdx = make(map[string]uint32)
	case KindBool:
		c.bools = make([]uint64, (rows+63)/64)
	}
	return c
}

func (c *column) set(row int, v Value) {
	c.present[row>>6] |= 1 << (uint(row) & 63)
	switch c.kind {
	case KindInt:
		c.ints[row] = v.Int
	case KindFloat:
		c.flts[row] = v.Flt
	case KindString:
		code, ok := c.dictIdx[v.Str]
		if !ok {
			code = uint32(len(c.dict))
			c.dict = append(c.dict, v.Str)
			c.dictIdx[v.Str] = code
		}
		c.codes[row] = code
	case KindBool:
		if v.Bool {
			c.bools[row>>6] |= 1 << (uint(row) & 63)
		}
	}
}

func (c *column) has(row int) bool {
	return c.present[row>>6]>>(uint(row)&63)&1 != 0
}

func (c *column) value(row int) Value {
	switch c.kind {
	case KindInt:
		return IntValue(c.ints[row])
	case KindFloat:
		return FloatValue(c.flts[row])
	case KindString:
		return StringValue(c.dict[c.codes[row]])
	case KindBool:
		return BoolValue(c.bools[row>>6]>>(uint(row)&63)&1 != 0)
	}
	return Value{}
}

// Rows returns the block's row count (0 for a nil block).
func (b *Block) Rows() int {
	if b == nil {
		return 0
	}
	return b.rows
}

// Value returns the metadata value of one field at one row.
func (b *Block) Value(row int, field string) (Value, bool) {
	if b == nil {
		return Value{}, false
	}
	c, ok := b.cols[field]
	if !ok || !c.has(row) {
		return Value{}, false
	}
	return c.value(row), true
}

// Row materializes one row's record as a fresh Map (nil when the row
// has no metadata) — the gather/compact/persist path, not the scan path.
func (b *Block) Row(row int) Map {
	if b == nil {
		return nil
	}
	var m Map
	for field, c := range b.cols {
		if c.has(row) {
			if m == nil {
				m = make(Map)
			}
			m[field] = c.value(row)
		}
	}
	return m
}

// valueKey encodes an eq-comparable value for the posting index. Floats
// are not indexed (equality filters on floats are a smell the inline
// plan handles fine); columns are single-kind, so keys cannot collide
// across kinds.
func valueKey(v Value) (string, bool) {
	switch v.Kind {
	case KindInt:
		return strconv.FormatInt(v.Int, 10), true
	case KindString:
		return v.Str, true
	case KindBool:
		if v.Bool {
			return "t", true
		}
		return "f", true
	}
	return "", false
}

// postings returns the ascending rows holding value v in this column,
// building the value index on first use.
func (c *column) postings(v Value) ([]int32, bool) {
	if c.kind == KindFloat {
		return nil, false
	}
	key, ok := valueKey(v)
	if !ok {
		return nil, false
	}
	c.once.Do(func() {
		idx := make(map[string][]int32)
		for w, word := range c.present {
			for word != 0 {
				row := w<<6 + bits.TrailingZeros64(word)
				word &= word - 1
				if k, ok := valueKey(c.value(row)); ok {
					idx[k] = append(idx[k], int32(row))
				}
			}
		}
		c.idx = idx
	})
	return c.idx[key], true
}

// Plan is the base-segment evaluation strategy the planner picks per
// query per segment: sweep every row evaluating the conjunction
// (inline), or probe the value index of a selective equality leaf and
// verify only its postings (bitmap). Both produce the same match set;
// the choice is purely a cost call.
type Plan uint8

const (
	PlanInline Plan = iota
	PlanBitmap
)

func (p Plan) String() string {
	if p == PlanBitmap {
		return "bitmap"
	}
	return "inline"
}

// EvalBlock computes the rows of a base block matching p into dst, a
// zeroed bitset of (rows+63)/64 words. blk may be nil (a base with no
// metadata); rows is the base row count, which bounds the sweep when
// blk is nil. The plan actually used is returned — PlanBitmap falls
// back to inline when no leaf has a usable posting list.
func (p *Predicate) EvalBlock(blk *Block, rows int, dst []uint64, plan Plan) Plan {
	if rows == 0 {
		return PlanInline
	}
	if blk == nil {
		// Every row is metadata-less: the conjunction holds for all rows
		// or none.
		if p.Match(nil) {
			setAll(dst, rows)
		}
		return PlanInline
	}
	cols := make([]*column, len(p.leaves))
	for i := range p.leaves {
		cols[i] = blk.cols[p.leaves[i].field] // may be nil: field absent from this base
	}
	if plan == PlanBitmap {
		if p.evalBitmap(blk, cols, dst) {
			return PlanBitmap
		}
	}
	p.evalInline(rows, cols, dst)
	return PlanInline
}

// evalInline sweeps the block one leaf at a time: each leaf runs as a
// loop over its typed column, clearing the bits of dst it rejects, so
// dst ends as the AND across leaves. Only rows still set are examined,
// so a selective first leaf shrinks the work of the rest. The result is
// exactly Match on every row (TestSweepMatchesRowMatch pins it).
func (p *Predicate) evalInline(rows int, cols []*column, dst []uint64) {
	setAll(dst, rows)
	for i := range p.leaves {
		sweepLeaf(&p.leaves[i], cols[i], dst)
	}
}

// sweepLeaf clears from dst the rows where leaf l does not hold. Bits of
// dst past the block's rows are zero and stay zero.
func sweepLeaf(l *leaf, c *column, dst []uint64) {
	switch {
	case c == nil:
		// The field is absent from every row: the leaf is a constant.
		if !l.match(Value{}, false) {
			clear(dst)
		}
	case l.op == opExists:
		for w := range dst {
			if l.want {
				dst[w] &= c.present[w]
			} else {
				dst[w] &^= c.present[w]
			}
		}
	case c.kind != l.kind:
		// The column's kind disagrees with the registry, which only a
		// bundle whose kind table contradicts its rows can produce: keep
		// the per-row Value semantics.
		sweepRows(l, c, dst)
	case c.kind == KindInt:
		sweepCmp(c.ints, c.present, l.op, l.val.Int, setOf(l.set, func(v Value) int64 { return v.Int }), dst)
	case c.kind == KindFloat:
		sweepCmp(c.flts, c.present, l.op, l.val.Flt, setOf(l.set, func(v Value) float64 { return v.Flt }), dst)
	case c.kind == KindString:
		// One leaf evaluation per distinct value, then a table lookup
		// per row.
		holds := make([]bool, len(c.dict))
		for code, s := range c.dict {
			holds[code] = l.match(StringValue(s), true)
		}
		for w := range dst {
			word := dst[w] & c.present[w]
			keep := word
			for ; word != 0; word &= word - 1 {
				b := bits.TrailingZeros64(word)
				if !holds[c.codes[w<<6+b]] {
					keep &^= 1 << uint(b)
				}
			}
			dst[w] = keep
		}
	case c.kind == KindBool && (l.op == opEq || l.op == opNe || l.op == opIn):
		for w := range dst {
			dst[w] &= c.present[w] & boolMatch(l, c.bools[w])
		}
	default:
		sweepRows(l, c, dst)
	}
}

// sweepCmp clears from dst every row that is absent or whose value v
// fails the comparison against x — the formulas of leaf.match, with
// Value.Equal as == and Value.Less as <, NaN behaviour included.
func sweepCmp[E int64 | float64](vals []E, present []uint64, o op, x E, set []E, dst []uint64) {
	for w := range dst {
		word := dst[w] & present[w]
		keep := word
		base := w << 6
		for ; word != 0; word &= word - 1 {
			b := bits.TrailingZeros64(word)
			v := vals[base+b]
			var ok bool
			switch o {
			case opEq:
				ok = v == x
			case opNe:
				ok = v != x
			case opLt:
				ok = v < x
			case opLe:
				ok = !(x < v)
			case opGt:
				ok = x < v
			case opGe:
				ok = !(v < x)
			case opIn:
				for _, s := range set {
					if v == s {
						ok = true
						break
					}
				}
			}
			if !ok {
				keep &^= 1 << uint(b)
			}
		}
		dst[w] = keep
	}
}

// boolMatch returns, for one word of a bool column's value bits, the
// bits where an eq, ne or in leaf holds (presence not applied).
func boolMatch(l *leaf, vals uint64) uint64 {
	is := func(b bool) uint64 {
		if b {
			return vals
		}
		return ^vals
	}
	switch l.op {
	case opEq:
		return is(l.val.Bool)
	case opNe:
		return ^is(l.val.Bool)
	}
	var m uint64
	for _, s := range l.set {
		m |= is(s.Bool)
	}
	return m
}

// sweepRows is the per-row fallback: leafMatchCol on every row still set.
func sweepRows(l *leaf, c *column, dst []uint64) {
	for w := range dst {
		for word := dst[w]; word != 0; word &= word - 1 {
			b := bits.TrailingZeros64(word)
			if !leafMatchCol(l, c, w<<6+b) {
				dst[w] &^= 1 << uint(b)
			}
		}
	}
}

// setOf extracts an in-leaf's operands as the column's element type.
func setOf[E any](set []Value, get func(Value) E) []E {
	if set == nil {
		return nil
	}
	out := make([]E, len(set))
	for i, v := range set {
		out[i] = get(v)
	}
	return out
}

// evalBitmap probes the value index of the first eq leaf that has one,
// seeds dst from its postings, and verifies the remaining leaves only on
// those rows. Reports false when no leaf is indexable.
func (p *Predicate) evalBitmap(blk *Block, cols []*column, dst []uint64) bool {
	seed := -1
	var rows []int32
	for i := range p.leaves {
		l := &p.leaves[i]
		if l.op != opEq || cols[i] == nil {
			continue
		}
		if pr, ok := cols[i].postings(l.val); ok {
			seed, rows = i, pr
			break
		}
	}
	if seed < 0 {
		return false
	}
candLoop:
	for _, r := range rows {
		row := int(r)
		for i := range p.leaves {
			if i == seed {
				continue
			}
			if !leafMatchCol(&p.leaves[i], cols[i], row) {
				continue candLoop
			}
		}
		dst[row>>6] |= 1 << (uint(row) & 63)
	}
	return true
}

// leafMatchCol evaluates one leaf at one row of its column (nil column
// means the field is absent from every row of this base).
func leafMatchCol(l *leaf, c *column, row int) bool {
	if c == nil {
		return l.match(Value{}, false)
	}
	if !c.has(row) {
		return l.match(Value{}, false)
	}
	return l.match(c.value(row), true)
}

// setAll sets bits [0, n) of the bitset.
func setAll(dst []uint64, n int) {
	for i := range dst {
		dst[i] = ^uint64(0)
	}
	if rem := n & 63; rem != 0 {
		dst[len(dst)-1] = ^uint64(0) >> uint(64-rem)
	}
}

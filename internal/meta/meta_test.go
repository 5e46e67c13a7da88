package meta

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

func TestParseMapJSONTypes(t *testing.T) {
	m, err := ParseMapJSON([]byte(`{"tenant":"acme","ts":1700000000,"score":0.5,"hot":true}`))
	if err != nil {
		t.Fatal(err)
	}
	want := Map{
		"tenant": StringValue("acme"),
		"ts":     IntValue(1700000000),
		"score":  FloatValue(0.5),
		"hot":    BoolValue(true),
	}
	if len(m) != len(want) {
		t.Fatalf("got %d fields, want %d", len(m), len(want))
	}
	for f, v := range want {
		if got := m[f]; !got.Equal(v) {
			t.Errorf("field %q = %+v, want %+v", f, got, v)
		}
	}
	// Exponent and fraction syntax force float even for integral values.
	m, err = ParseMapJSON([]byte(`{"a":1e3,"b":2.0}`))
	if err != nil {
		t.Fatal(err)
	}
	if m["a"].Kind != KindFloat || m["b"].Kind != KindFloat {
		t.Fatalf("1e3 and 2.0 should parse as floats, got %v %v", m["a"].Kind, m["b"].Kind)
	}
}

func TestParseMapJSONRejects(t *testing.T) {
	for _, bad := range []string{
		`{"a":null}`,
		`{"a":[1,2]}`,
		`{"a":{"b":1}}`,
		`{"":1}`,
		`[1,2]`,
		`{"a":1}trailing`,
		`{"a":99999999999999999999999999}`,
	} {
		if _, err := ParseMapJSON([]byte(bad)); err == nil {
			t.Errorf("ParseMapJSON(%s) accepted, want error", bad)
		}
	}
	for _, empty := range []string{"", "null", "{}"} {
		m, err := ParseMapJSON([]byte(empty))
		if err != nil || m != nil {
			t.Errorf("ParseMapJSON(%q) = %v, %v; want nil, nil", empty, m, err)
		}
	}
}

func TestRegistryFixedAtFirstWrite(t *testing.T) {
	r := NewRegistry()
	if err := r.Register(Map{"ts": IntValue(1), "tenant": StringValue("a")}); err != nil {
		t.Fatal(err)
	}
	v0 := r.Version()
	// Same kinds: fine, no version bump.
	if err := r.Register(Map{"ts": IntValue(2)}); err != nil {
		t.Fatal(err)
	}
	if r.Version() != v0 {
		t.Fatalf("re-registering an existing kind bumped the version")
	}
	// Kind conflict: typed rejection, registry unchanged.
	err := r.Register(Map{"ts": StringValue("nope"), "fresh": BoolValue(true)})
	if err == nil {
		t.Fatal("conflicting kind accepted")
	}
	if !strings.Contains(err.Error(), `"ts"`) || !strings.Contains(err.Error(), "int") {
		t.Fatalf("conflict error %q should name the field and its kind", err)
	}
	if _, ok := r.Kind("fresh"); ok {
		t.Fatal("a rejected write must not register its other fields")
	}
	if k, _ := r.Kind("ts"); k != KindInt {
		t.Fatalf("ts kind = %v after rejected write, want int", k)
	}
}

func TestRegistrySeed(t *testing.T) {
	r := NewRegistry()
	r.Seed(map[string]Kind{"a": KindInt})
	r.SeedRows([]Map{nil, {"b": StringValue("x")}, {"a": StringValue("conflict-loses")}})
	if k, _ := r.Kind("a"); k != KindInt {
		t.Fatalf("seeded kind overwritten: a = %v", k)
	}
	if k, _ := r.Kind("b"); k != KindString {
		t.Fatalf("row-seeded kind b = %v, want string", k)
	}
}

func kinds() map[string]Kind {
	return map[string]Kind{
		"tenant": KindString,
		"ts":     KindInt,
		"score":  KindFloat,
		"hot":    KindBool,
	}
}

func TestCompileFilterErrors(t *testing.T) {
	cases := []struct {
		raw  string
		want string // substring of the error
	}{
		{`{"field":"nope","eq":1}`, `unknown metadata field "nope"`},
		{`{"field":"ts","eq":"acme"}`, `holds int values, got string`},
		{`{"field":"ts","ge":17.5}`, `holds int values, got float`},
		{`{"field":"hot","lt":true}`, "not ordered"},
		{`{"field":"tenant"}`, "exactly one operator"},
		{`{"field":"tenant","eq":"a","ne":"b"}`, "exactly one operator"},
		{`{"field":"tenant","like":"a%"}`, `unknown operator "like"`},
		{`{"and":[{"field":"ts","eq":1}],"field":"ts"}`, "no other keys"},
		{`{"and":{}}`, "wants an array"},
		{`{"and":[]}`, "empty conjunction"},
		{`{"field":"ts","in":5}`, "wants an array"},
		{`{"field":"ts","exists":1}`, "wants true or false"},
		{`{"field":"ts","eq":null}`, "null is not a metadata value"},
		{`"just a string"`, "must be a JSON object"},
		{`{"field":"ts","eq":1}trailing`, "trailing data"},
	}
	for _, c := range cases {
		_, err := CompileFilter([]byte(c.raw), kinds())
		if err == nil {
			t.Errorf("CompileFilter(%s) accepted, want error containing %q", c.raw, c.want)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("CompileFilter(%s) error %q, want substring %q", c.raw, err, c.want)
		}
	}
	// nil / null filters compile to no predicate.
	for _, empty := range []string{"", "null", "  null  "} {
		p, err := CompileFilter([]byte(empty), kinds())
		if p != nil || err != nil {
			t.Errorf("CompileFilter(%q) = %v, %v; want nil, nil", empty, p, err)
		}
	}
}

func TestCompileFilterDepthBound(t *testing.T) {
	deep := `{"field":"ts","eq":1}`
	for i := 0; i < maxFilterDepth+2; i++ {
		deep = `{"and":[` + deep + `]}`
	}
	if _, err := CompileFilter([]byte(deep), kinds()); err == nil {
		t.Fatal("over-deep filter accepted")
	}
}

func TestPredicateMatch(t *testing.T) {
	row := Map{
		"tenant": StringValue("acme"),
		"ts":     IntValue(100),
		"score":  FloatValue(0.5),
		"hot":    BoolValue(true),
	}
	cases := []struct {
		raw  string
		m    Map
		want bool
	}{
		{`{"field":"tenant","eq":"acme"}`, row, true},
		{`{"field":"tenant","eq":"evil"}`, row, false},
		{`{"field":"tenant","ne":"evil"}`, row, true},
		{`{"field":"ts","ge":100}`, row, true},
		{`{"field":"ts","gt":100}`, row, false},
		{`{"field":"ts","le":100}`, row, true},
		{`{"field":"ts","lt":100}`, row, false},
		{`{"field":"score","ge":0.5}`, row, true},
		{`{"field":"score","gt":1}`, row, false},
		{`{"field":"ts","in":[1,100,7]}`, row, true},
		{`{"field":"ts","in":[]}`, row, false},
		{`{"field":"hot","eq":true}`, row, true},
		{`{"field":"hot","exists":true}`, row, true},
		{`{"field":"hot","exists":false}`, row, false},
		{`{"and":[{"field":"tenant","eq":"acme"},{"field":"ts","ge":100}]}`, row, true},
		{`{"and":[{"field":"tenant","eq":"acme"},{"field":"ts","gt":100}]}`, row, false},
		// Absent fields: every comparison is no-match except exists:false.
		{`{"field":"tenant","eq":"acme"}`, nil, false},
		{`{"field":"tenant","ne":"acme"}`, nil, false},
		{`{"field":"ts","lt":100}`, nil, false},
		{`{"field":"ts","exists":false}`, nil, true},
		{`{"field":"ts","exists":true}`, nil, false},
	}
	for _, c := range cases {
		p, err := CompileFilter([]byte(c.raw), kinds())
		if err != nil {
			t.Fatalf("CompileFilter(%s): %v", c.raw, err)
		}
		if got := p.Match(c.m); got != c.want {
			t.Errorf("Match(%s) on %v = %v, want %v", c.raw, c.m, got, c.want)
		}
	}
}

// blockRows builds a deterministic rowset: tenant cycles a..e, ts counts
// up, every third row has no metadata at all.
func blockRows(n int) []Map {
	rows := make([]Map, n)
	for i := range rows {
		if i%3 == 2 {
			continue
		}
		rows[i] = Map{
			"tenant": StringValue(string(rune('a' + i%5))),
			"ts":     IntValue(int64(i)),
			"hot":    BoolValue(i%2 == 0),
		}
	}
	return rows
}

// evalBits runs EvalBlock and returns the matched rows.
func evalBits(t *testing.T, p *Predicate, blk *Block, rows int, plan Plan) ([]int, Plan) {
	t.Helper()
	dst := make([]uint64, (rows+63)/64)
	used := p.EvalBlock(blk, rows, dst, plan)
	var out []int
	for i := 0; i < rows; i++ {
		if dst[i>>6]>>(uint(i)&63)&1 != 0 {
			out = append(out, i)
		}
	}
	return out, used
}

func TestEvalBlockPlansAgree(t *testing.T) {
	const n = 333
	rows := blockRows(n)
	blk := NewBlock(rows)
	if blk.Rows() != n {
		t.Fatalf("block rows = %d, want %d", blk.Rows(), n)
	}
	filters := []string{
		`{"field":"tenant","eq":"c"}`,
		`{"and":[{"field":"tenant","eq":"c"},{"field":"ts","ge":100}]}`,
		`{"and":[{"field":"hot","eq":true},{"field":"tenant","eq":"a"}]}`,
		`{"field":"ts","exists":false}`,
		`{"field":"ts","in":[3,4,5,6]}`,
	}
	for _, raw := range filters {
		p, err := CompileFilter([]byte(raw), kinds())
		if err != nil {
			t.Fatal(err)
		}
		inline, usedI := evalBits(t, p, blk, n, PlanInline)
		bm, usedB := evalBits(t, p, blk, n, PlanBitmap)
		if usedI != PlanInline {
			t.Fatalf("inline eval reported plan %v", usedI)
		}
		if fmt.Sprint(inline) != fmt.Sprint(bm) {
			t.Errorf("filter %s: inline %v != bitmap(%v) %v", raw, inline, usedB, bm)
		}
		// Cross-check every row against the row-at-a-time evaluator.
		want := 0
		for i, m := range rows {
			if p.Match(m) {
				want++
				_ = i
			}
		}
		if len(inline) != want {
			t.Errorf("filter %s: %d matches, want %d", raw, len(inline), want)
		}
	}
	// exists:false has no indexable eq leaf: bitmap must fall back.
	p, _ := CompileFilter([]byte(`{"field":"ts","exists":false}`), kinds())
	if _, used := evalBits(t, p, blk, n, PlanBitmap); used != PlanInline {
		t.Fatal("bitmap plan without an eq leaf should fall back to inline")
	}
	// eq on an indexed column reports the bitmap plan.
	p, _ = CompileFilter([]byte(`{"field":"tenant","eq":"c"}`), kinds())
	if _, used := evalBits(t, p, blk, n, PlanBitmap); used != PlanBitmap {
		t.Fatal("eq on a string column should use the bitmap plan when asked")
	}
}

func TestEvalBlockNilBlock(t *testing.T) {
	p, _ := CompileFilter([]byte(`{"field":"ts","exists":false}`), kinds())
	matched, _ := evalBits(t, p, nil, 130, PlanInline)
	if len(matched) != 130 {
		t.Fatalf("exists:false over a metadata-less base matched %d of 130", len(matched))
	}
	p, _ = CompileFilter([]byte(`{"field":"ts","eq":1}`), kinds())
	matched, _ = evalBits(t, p, nil, 130, PlanBitmap)
	if len(matched) != 0 {
		t.Fatalf("eq over a metadata-less base matched %d rows, want 0", len(matched))
	}
}

func TestEvalBlockRandomizedAgainstMatch(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(200)
		rows := make([]Map, n)
		for i := range rows {
			if rng.Intn(4) == 0 {
				continue
			}
			rows[i] = Map{
				"tenant": StringValue(string(rune('a' + rng.Intn(3)))),
				"ts":     IntValue(int64(rng.Intn(50))),
			}
		}
		blk := NewBlock(rows)
		raw := fmt.Sprintf(`{"and":[{"field":"tenant","eq":"%c"},{"field":"ts","lt":%d}]}`,
			'a'+rune(rng.Intn(3)), rng.Intn(60))
		p, err := CompileFilter([]byte(raw), kinds())
		if err != nil {
			t.Fatal(err)
		}
		for _, plan := range []Plan{PlanInline, PlanBitmap} {
			got, _ := evalBits(t, p, blk, n, plan)
			j := 0
			for i, m := range rows {
				if p.Match(m) {
					if j >= len(got) || got[j] != i {
						t.Fatalf("trial %d plan %v: row %d missing from %v", trial, plan, i, got)
					}
					j++
				}
			}
			if j != len(got) {
				t.Fatalf("trial %d plan %v: %d extra matches", trial, plan, len(got)-j)
			}
		}
	}
}

func TestBlockRowRoundTrip(t *testing.T) {
	rows := blockRows(97)
	blk := NewBlock(rows)
	for i, want := range rows {
		got := blk.Row(i)
		if len(got) != len(want) {
			t.Fatalf("row %d: %d fields, want %d", i, len(got), len(want))
		}
		for f, v := range want {
			if gv, ok := got[f]; !ok || !gv.Equal(v) {
				t.Fatalf("row %d field %q = %+v, want %+v", i, f, gv, v)
			}
		}
	}
	if NewBlock([]Map{nil, nil, {}}) != nil {
		t.Fatal("a rowset with no metadata should build a nil block")
	}
}

func TestTrackerPlanner(t *testing.T) {
	tr := NewTracker()
	p, err := CompileFilter([]byte(`{"field":"tenant","eq":"acme"}`), kinds())
	if err != nil {
		t.Fatal(err)
	}
	// Cold start: inline, regardless of size.
	if got := tr.Choose(p, 10000); got != PlanInline {
		t.Fatalf("cold-start plan = %v, want inline", got)
	}
	// Observed selective: bitmap on big bases, inline on small ones.
	tr.Observe(p.Fields(), 10, 10000)
	if got := tr.Choose(p, 10000); got != PlanBitmap {
		t.Fatalf("selective plan = %v, want bitmap", got)
	}
	if got := tr.Choose(p, minBitmapRows-1); got != PlanInline {
		t.Fatalf("small-base plan = %v, want inline", got)
	}
	// Unselective traffic flips it back.
	tr.Observe(p.Fields(), 9000, 10000)
	if got := tr.Choose(p, 10000); got != PlanInline {
		t.Fatalf("unselective plan = %v, want inline", got)
	}
	// No eq leaf: always inline.
	pr, _ := CompileFilter([]byte(`{"field":"ts","ge":5}`), kinds())
	tr.Observe(pr.Fields(), 1, 10000)
	if got := tr.Choose(pr, 10000); got != PlanInline {
		t.Fatalf("range-only plan = %v, want inline", got)
	}
	tr.CountPlan(PlanBitmap)
	tr.CountPlan(PlanInline)
	tr.CountPlan(PlanInline)
	snap := tr.Snapshot()
	if snap.PlanInline != 2 || snap.PlanBitmap != 1 {
		t.Fatalf("plan counters = %d/%d, want 2/1", snap.PlanInline, snap.PlanBitmap)
	}
	if fs, ok := snap.Fields["tenant"]; !ok || fs.Scanned == 0 {
		t.Fatalf("snapshot lacks tenant observations: %+v", snap.Fields)
	}
}

// TestSweepMatchesRowMatch pins the typed column sweep to the row-wise
// definition: for random blocks and random conjunctions over every
// operator and kind — absent values, fields missing from the block,
// NaN floats, and a column whose kind disagrees with the registry —
// the inline plan's match set is exactly Predicate.Match(blk.Row(i)).
func TestSweepMatchesRowMatch(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	// "mixed" holds ints in the block but is registered as float, so its
	// leaves take the per-row fallback. "ghost" never appears in a block.
	reg := map[string]Kind{
		"tenant": KindString, "ts": KindInt, "score": KindFloat, "hot": KindBool,
		"mixed": KindFloat, "ghost": KindInt,
	}
	floats := []float64{-1, 0, 0.5, 2, math.NaN()}
	value := func(field string) Value {
		switch field {
		case "tenant":
			return StringValue(string(rune('a' + rng.Intn(4))))
		case "ts", "mixed":
			return IntValue(int64(rng.Intn(6) - 2))
		case "score":
			return FloatValue(floats[rng.Intn(len(floats))])
		}
		return BoolValue(rng.Intn(2) == 0)
	}
	operand := func(field string) string {
		switch field {
		case "tenant":
			return fmt.Sprintf("%q", string(rune('a'+rng.Intn(4))))
		case "score":
			return fmt.Sprint([]float64{-1, 0, 0.5, 2, 1.5}[rng.Intn(5)])
		case "hot":
			return fmt.Sprint(rng.Intn(2) == 0)
		}
		return fmt.Sprint(rng.Intn(6) - 2)
	}
	fields := []string{"tenant", "ts", "score", "hot", "mixed", "ghost"}
	ops := []string{"eq", "ne", "lt", "le", "gt", "ge", "in", "exists"}
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(300)
		rows := make([]Map, n)
		for i := range rows {
			for _, f := range fields[:5] {
				if rng.Intn(3) != 0 {
					if rows[i] == nil {
						rows[i] = Map{}
					}
					rows[i][f] = value(f)
				}
			}
		}
		blk := NewBlock(rows)
		var leaves []string
		for len(leaves) < 1+rng.Intn(3) {
			f, o := fields[rng.Intn(len(fields))], ops[rng.Intn(len(ops))]
			var arg string
			switch {
			case o == "exists":
				arg = fmt.Sprint(rng.Intn(2) == 0)
			case o == "in":
				var set []string
				for k := rng.Intn(4); k > 0; k-- {
					set = append(set, operand(f))
				}
				arg = "[" + strings.Join(set, ",") + "]"
			case f == "hot" && o != "eq" && o != "ne":
				continue // ordered operators on bool do not compile
			default:
				arg = operand(f)
			}
			leaves = append(leaves, fmt.Sprintf(`{"field":%q,%q:%s}`, f, o, arg))
		}
		raw := `{"and":[` + strings.Join(leaves, ",") + `]}`
		p, err := CompileFilter([]byte(raw), reg)
		if err != nil {
			t.Fatalf("CompileFilter(%s): %v", raw, err)
		}
		got, _ := evalBits(t, p, blk, n, PlanInline)
		var want []int
		for i := 0; i < n; i++ {
			if p.Match(blk.Row(i)) {
				want = append(want, i)
			}
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("trial %d %s:\n got %v\nwant %v", trial, raw, got, want)
		}
	}
}

package store

import (
	"bytes"
	"encoding/gob"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"qse/internal/fsio"
	"qse/internal/meta"
)

// The committed fixtures under testdata/quantfixture are the only
// on-disk bundles left from the era when the store kept a quantized
// shadow scan beside the exact one. A one-off generator, since deleted,
// wrote both by the same recipe: fixture(t, 40) → New → quantize at
// 4 or 8 bits → Save → Add{1.5,-1.5,0.25} → Add{99,-99,42} → Remove(3)
// → Save. bits8/ carries an 8-bit shadow and bits4/ the unpacked
// one-byte-per-dimension 4-bit shadow, in three base-section fields that
// the reader no longer has (DESIGN.md §13–14). Regenerating them with
// the current writer would defeat the test — do not.

// copyFixture copies one committed fixture directory into a temp dir so
// the test can Save over it without touching the repository.
func copyFixture(t *testing.T, name string) string {
	t.Helper()
	src := filepath.Join("testdata", "quantfixture", name)
	dst := t.TempDir()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return filepath.Join(dst, "fix.bundle")
}

// answer is one search result with its distance as raw bits, so a
// comparison cannot hide a last-ulp difference.
type answer struct{ ID, DistBits uint64 }

// fixtureAnswers opens the bundle at path and records its answers to a
// fixed query set, both a top-5 and a full ranking of every live row.
func fixtureAnswers(t *testing.T, path string) [][]answer {
	t.Helper()
	st, err := Open(path, l1, Gob[[]float64]())
	if err != nil {
		t.Fatalf("opening %s: %v", path, err)
	}
	if st.Size() != 41 { // 40 base rows + 2 added - 1 removed
		t.Fatalf("%s: %d live objects, want 41", path, st.Size())
	}
	var out [][]answer
	for qi, q := range queries(6, 99) {
		for _, kp := range [][2]int{{5, 20}, {41, 41}} {
			res, _, err := st.Search(q, kp[0], kp[1])
			if err != nil {
				t.Fatalf("%s: query %d: %v", path, qi, err)
			}
			row := make([]answer, len(res))
			for i, r := range res {
				row[i] = answer{r.ID, math.Float64bits(r.Distance)}
			}
			out = append(out, row)
		}
	}
	return out
}

// reencode returns the gob payload of the base section at path and a
// re-encoding of what the reader decoded from it. Fields the reader
// does not know are in the first and not the second.
func reencode(t *testing.T, path string) (payload, again []byte) {
	t.Helper()
	_, payload, err := readEnvelope(fsio.OS(), path)
	if err != nil {
		t.Fatal(err)
	}
	body, err := readBaseSection(fsio.OS(), path)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(body); err != nil {
		t.Fatal(err)
	}
	return payload, buf.Bytes()
}

// TestQuantBundleCompat pins the compatibility rule for shadow-era
// bundles: each fixture opens exact with its 41 live objects, answers
// bit-identically to the other fixture (the recipe was the same, so the
// shadow width must not matter), and keeps those answers after Compact
// + Save + reopen, which writes a base without the shadow fields. The
// save goes to a fresh name: a compaction alone leaves the contents
// unchanged, so a save over the old name would rightly skip.
func TestQuantBundleCompat(t *testing.T) {
	names := []string{"bits4", "bits8"}
	want := map[string][][]answer{}
	for _, name := range names {
		want[name] = fixtureAnswers(t, copyFixture(t, name))
	}
	for _, name := range names {
		other := "bits4"
		if name == other {
			other = "bits8"
		}
		t.Run(name, func(t *testing.T) {
			if !reflect.DeepEqual(want[name], want[other]) {
				t.Fatalf("%s answers differ from %s's:\n  %v\n  %v", name, other, want[name], want[other])
			}
			path := copyFixture(t, name)
			st, err := Open(path, l1, Gob[[]float64]())
			if err != nil {
				t.Fatal(err)
			}
			// The reader skips at least the shadow's codes: one byte per
			// dimension of each of the 40 base rows at either width.
			payload, again := reencode(t, path+".shard-000-of-001.base")
			if skipped, codes := len(payload)-len(again), 40*st.Dims(); skipped < codes {
				t.Fatalf("reader skips %d bytes of the fixture base, want at least the %d shadow code bytes", skipped, codes)
			}
			if !st.Compact() {
				t.Fatal("Compact found nothing to fold in a fixture with delta rows and a tombstone")
			}
			path = filepath.Join(filepath.Dir(path), "resaved.bundle")
			if err := st.Save(path); err != nil {
				t.Fatal(err)
			}
			// Written by this process, so gob numbers its types as the
			// re-encoding does: equal bytes mean no field was skipped.
			if payload, again := reencode(t, path+".shard-000-of-001.base"); !bytes.Equal(payload, again) {
				t.Fatalf("rewritten base carries %d bytes the reader skips", len(payload)-len(again))
			}
			if got := fixtureAnswers(t, path); !reflect.DeepEqual(got, want[other]) {
				t.Fatalf("answers after Compact+Save+reopen differ from %s's:\n  %v\n  %v", other, got, want[other])
			}
		})
	}
}

// shadowEraBase is a base section as the shadow-era writer laid it out:
// today's fields, then the shadow's bit width per dimension, its
// per-dimension boundary grid, and the base rows' codes packed at that
// width. gob matches fields by name, so writing one through the current
// envelope yields a section of the kind the committed fixtures hold, at
// any width and shard count.
type shadowEraBase struct {
	Tag         uint64
	Dims        int
	NextID      uint64
	Objects     [][]byte
	Flat        []float64
	IDs         []uint64
	Meta        []meta.Map
	QuantBits   int
	QuantBounds []float64
	Shadow      []uint8
}

// writeShadowEraBase rewrites the base section at path as the
// shadow-era writer would have written it with a bits-wide shadow:
// an equal-width grid of 2^bits cells over each dimension's range, and
// each row's cell codes packed low bits first, ceil(dims*bits/8) bytes
// a row. It checks that the reader skips at least the code bytes.
func writeShadowEraBase(t *testing.T, path string, bits int) {
	t.Helper()
	b, err := readBaseSection(fsio.OS(), path)
	if err != nil {
		t.Fatal(err)
	}
	rows, d, cells := len(b.IDs), b.Dims, 1<<bits
	lo, hi := make([]float64, d), make([]float64, d)
	for j := range lo {
		lo[j], hi[j] = math.Inf(1), math.Inf(-1)
	}
	for i, v := range b.Flat {
		lo[i%d], hi[i%d] = math.Min(lo[i%d], v), math.Max(hi[i%d], v)
	}
	var grid []float64
	if rows > 0 {
		for j := 0; j < d; j++ {
			for c := 0; c <= cells; c++ {
				grid = append(grid, lo[j]+(hi[j]-lo[j])*float64(c)/float64(cells))
			}
		}
	}
	stride := (d*bits + 7) / 8
	shadow := make([]uint8, rows*stride)
	for r := 0; r < rows; r++ {
		for j := 0; j < d; j++ {
			code := 0
			if w := hi[j] - lo[j]; w > 0 {
				code = min(int((b.Flat[r*d+j]-lo[j])/w*float64(cells)), cells-1)
			}
			bit := j * bits
			shadow[r*stride+bit/8] |= uint8(code) << (bit % 8)
		}
	}
	if _, err := writeEnvelope(fsio.OS(), path, baseSectionVersion, &shadowEraBase{
		Tag: b.Tag, Dims: b.Dims, NextID: b.NextID, Objects: b.Objects, Flat: b.Flat, IDs: b.IDs, Meta: b.Meta,
		QuantBits: bits, QuantBounds: grid, Shadow: shadow,
	}); err != nil {
		t.Fatal(err)
	}
	if payload, again := reencode(t, path); len(payload)-len(again) < len(shadow) {
		t.Fatalf("%s: reader skips %d bytes, want at least the %d shadow code bytes", path, len(payload)-len(again), len(shadow))
	}
}

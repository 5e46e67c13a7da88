package store

// Native fuzz targets for the durable layer: whatever bytes land on disk
// — truncated snapshots, bit rot, files from other programs, adversarial
// manifests — Open/OpenSharded/OpenAuto must return an error, never
// panic, never loop, never serve garbage as if it were intact. The
// targets attack both layers of the format: the raw file (envelope
// checks) and a validly sealed envelope around arbitrary payload bytes
// (gob decoding and the cross-field validators behind the CRC).
//
// Seed corpora live in testdata/fuzz/FuzzBundleOpen; richer seeds
// (fully valid v1 bundles and v2 manifests plus systematic damage) are
// regenerated at run time in the fuzz body, so plain `go test` exercises
// all of them as regression inputs and `go test -fuzz` mutates from
// them. CI runs a short -fuzztime smoke on every push.

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"testing"

	"qse/internal/fsio"
)

// fuzzDist tolerates objects of any decoded length: a mutated bundle may
// legally decode to objects of the "wrong" shape — that is the codec
// user's domain, not the store's — and the store must stay panic-free
// while serving them.
func fuzzDist(a, b []float64) float64 {
	n := min(len(a), len(b))
	var s float64
	for i := 0; i < n; i++ {
		s += math.Abs(a[i] - b[i])
	}
	return s + math.Abs(float64(len(a)-len(b)))
}

// seal wraps payload in a well-formed envelope (valid magic, length, and
// CRC) of the given format version, driving the fuzzer straight past the
// integrity checks into the decoder and validators.
func seal(version uint16, payload []byte) []byte {
	buf := make([]byte, 0, headerLen+len(payload)+crcLen)
	buf = append(buf, bundleMagic...)
	buf = binary.LittleEndian.AppendUint16(buf, version)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(payload)))
	buf = append(buf, payload...)
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, crcTable))
}

// v3Fixture loads the committed intact single-shard v3 layout (see
// gen_corpus_test.go): manifest, base section, delta log. Reading three
// small files per worker restart is cheap, unlike training a model.
func v3Fixture(f *testing.F) (manifest, base, delta []byte) {
	f.Helper()
	read := func(name string) []byte {
		data, err := os.ReadFile(filepath.Join("testdata", "v3fixture", name))
		if err != nil {
			f.Fatalf("reading v3 fixture %s (regenerate with QSE_GEN_CORPUS=1): %v", name, err)
		}
		return data
	}
	return read("manifest"), read("base"), read("delta")
}

func FuzzBundleOpen(f *testing.F) {
	// Real artifacts (saved bundles of every format era — v1 single
	// file, v2 manifest and shard bundle, v3 manifest/base/delta — and
	// damaged variants of each) live in the committed corpus under
	// testdata/fuzz/FuzzBundleOpen — see gen_corpus_test.go. The setup
	// here stays cheap on purpose: every instrumented fuzz worker
	// re-runs it, so training a model here would stall the exec rate to
	// nothing. These inline seeds cover the structural envelope space
	// the committed artifacts don't.
	f.Add(seal(bundleVersion, []byte("gob?")))      // valid envelope, junk payload
	f.Add(seal(manifestVersion, []byte{0}))         // valid envelope, junk manifest
	f.Add(seal(manifestV3Version, []byte{1, 2}))    // valid envelope, junk v3 manifest
	f.Add(seal(baseSectionVersion, []byte("base"))) // valid envelope, junk base section
	f.Add(seal(7, nil))                             // future version
	f.Add([]byte(bundleMagic))                      // magic only
	f.Add([]byte(deltaMagic))                       // delta-log magic only
	f.Add([]byte{})                                 // empty file

	fixMan, fixBase, fixDelta := v3Fixture(f)
	f.Add(fixDelta) // the intact delta log itself, ready for mutation
	// A base section written while the store kept a quantized shadow: it
	// carries three fields the reader no longer has and must skip
	// (DESIGN.md §13–14).
	shadowBase, err := os.ReadFile(filepath.Join("testdata", "quantfixture", "bits8", "fix.bundle.shard-000-of-001.base"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(shadowBase)

	codec := Gob[[]float64]()
	f.Fuzz(func(t *testing.T, data []byte) {
		tdir := t.TempDir()
		// Attack the whole-file surfaces: the bytes as the layout file
		// itself, and as the payload of each envelope version (CRC fixed
		// up, so the decoder and the validators behind it run every
		// time).
		cases := [][]byte{
			data,
			seal(bundleVersion, data),
			seal(manifestVersion, data),
			seal(manifestV3Version, data),
		}
		for ci, raw := range cases {
			path := filepath.Join(tdir, "fuzz.bundle")
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			// Any outcome but a panic is acceptable; a store that does
			// open must actually be servable.
			if st, err := Open(path, fuzzDist, codec); err == nil {
				exercise(t, ci, st)
			}
			if sh, err := OpenSharded(path, fuzzDist, codec); err == nil {
				exercise(t, ci, sh)
			}
			if b, err := OpenAuto(path, fuzzDist, codec); err == nil {
				exercise(t, ci, b)
			}
		}

		// Attack the delta-log recovery path and the base-section decoder:
		// an intact v3 manifest with the fuzzed bytes standing in first
		// for the delta log (next to the intact base), then for the base
		// section (next to the intact log). Opening must recover to some
		// durable prefix (and serve from it) or reject loudly — never
		// panic, never loop.
		path := filepath.Join(tdir, "fix.bundle")
		bases, deltas := shardSectionFiles(path, 1)
		for slot, sections := range [][2][]byte{{fixBase, data}, {data, fixDelta}} {
			for name, content := range map[string][]byte{
				path:                           fixMan,
				filepath.Join(tdir, bases[0]):  sections[0],
				filepath.Join(tdir, deltas[0]): sections[1],
			} {
				if err := os.WriteFile(name, content, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			st, err := Open(path, fuzzDist, codec)
			if err != nil {
				continue
			}
			if slot == 0 && st.Size() < 40 {
				// The committed base holds 40 objects; recovery may drop
				// delta rows but can never lose base rows.
				t.Fatalf("fuzzed delta log shrank the store below its base: %d", st.Size())
			}
			exercise(t, 4+slot, st)
		}
	})
}

// exercise drives a store that opened successfully: a fuzz input that
// passes every check must yield a store whose basic operations hold up.
func exercise(t *testing.T, ci int, b Backend[[]float64]) {
	t.Helper()
	st := b.Stats()
	if st.Size < 0 || st.BaseSize+st.DeltaSize-st.Tombstones != st.Size {
		t.Fatalf("case %d: inconsistent stats from opened fuzz bundle: %+v", ci, st)
	}
	if _, _, err := b.Search([]float64{1, -1, 0}, 3, 12); err != nil {
		t.Fatalf("case %d: search on opened fuzz bundle: %v", ci, err)
	}
	b.First()
	b.Get(0)
}

// TestSealRoundTrip guards the fuzz harness itself: seal must produce
// envelopes the reader accepts, or the fuzz targets silently stop
// reaching the decoder.
func TestSealRoundTrip(t *testing.T) {
	version, payload, err := readEnvelopeBytes(t, seal(bundleVersion, []byte("hello")))
	if err != nil {
		t.Fatalf("sealed envelope rejected: %v", err)
	}
	if version != bundleVersion || !bytes.Equal(payload, []byte("hello")) {
		t.Fatalf("seal round-trip: version %d payload %q", version, payload)
	}
}

func readEnvelopeBytes(t *testing.T, data []byte) (uint16, []byte, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "seal.bin")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return readEnvelope(fsio.OS(), path)
}

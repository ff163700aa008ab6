package slm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"lbe/internal/mass"
	"lbe/internal/mods"
)

func buildTestIndex(t *testing.T) *Index {
	t.Helper()
	params := DefaultParams()
	params.Mods.MaxPerPep = 1
	ix, err := Build([]string{"PEPTIDEK", "NQKCMAAR", "AAAAGGGGK"}, params)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func TestSerializeRoundTrip(t *testing.T) {
	ix := buildTestIndex(t)
	var buf bytes.Buffer
	n, err := ix.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	got, err := loadBytes(t, buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != ix.NumRows() || got.NumIons() != ix.NumIons() {
		t.Fatalf("shape: %d/%d rows, %d/%d ions",
			got.NumRows(), ix.NumRows(), got.NumIons(), ix.NumIons())
	}
	// Search results must be identical.
	q := queryFor(t, "PEPTIDEK")
	a, wa := ix.Search(q, 0, nil)
	b, wb := got.Search(q, 0, nil)
	if len(a) != len(b) || wa != wb {
		t.Fatalf("results differ after round trip: %d vs %d matches", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("match %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	// Params preserved, including mods.
	if got.Params().Mods.MaxPerPep != 1 || len(got.Params().Mods.Mods) != 3 {
		t.Errorf("params not preserved: %+v", got.Params().Mods)
	}
	if !got.Params().PrecursorTol.IsOpen() {
		t.Error("open precursor tolerance not preserved")
	}
}

func TestSerializeFileRoundTrip(t *testing.T) {
	ix := buildTestIndex(t)
	path := filepath.Join(t.TempDir(), "part.slm")
	if err := ix.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.MemoryBytes() != ix.MemoryBytes() {
		t.Errorf("memory accounting differs: %d vs %d", got.MemoryBytes(), ix.MemoryBytes())
	}
}

func TestSerializeEmptyIndex(t *testing.T) {
	ix, err := Build(nil, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := loadBytes(t, buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != 0 || got.NumIons() != 0 {
		t.Errorf("empty index round trip: %d rows %d ions", got.NumRows(), got.NumIons())
	}
}

func TestSerializeDetectsCorruption(t *testing.T) {
	ix := buildTestIndex(t)
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	// Flip one byte in the middle of the payload.
	data := buf.Bytes()
	data[len(data)/2] ^= 0xFF
	mustReject(t, "flipped payload byte", data)
}

func TestSerializeRejectsBadMagicAndVersion(t *testing.T) {
	mustReject(t, "bad magic", []byte("NOPE1234"))
	ix := buildTestIndex(t)
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[4] = 99 // version field
	mustReject(t, "future version", data)
}

// TestOpenRejectsPreV3 pins the one-format rule: a file claiming a
// retired SLMX version — here a valid v3 image with its version field
// patched and the header CRC re-fixed, so the version is the only fault
// — is refused by both open modes with a *StaleVersionError whose
// message names the version and the rebuild command.
func TestOpenRejectsPreV3(t *testing.T) {
	ix := buildTestIndex(t)
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	_, crcOff, _ := headerOffsets(ix)
	for _, version := range []uint32{1, 2} {
		data := append([]byte(nil), buf.Bytes()...)
		binary.LittleEndian.PutUint32(data[len(indexMagic):], version)
		refixHeaderCRC(data, crcOff)
		path := filepath.Join(t.TempDir(), "old.slm")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, heapErr := LoadFile(path)
		_, mapErr := OpenIndexMapped(path)
		for mode, err := range map[string]error{"LoadFile": heapErr, "OpenIndexMapped": mapErr} {
			var stale *StaleVersionError
			if !errors.As(err, &stale) || stale.Version != version {
				t.Fatalf("v%d %s: want *StaleVersionError, got %v", version, mode, err)
			}
			msg := err.Error()
			if !strings.Contains(msg, fmt.Sprintf("version %d", version)) || !strings.Contains(msg, "lbe-index -out") {
				t.Errorf("v%d %s: error %q must name the version and the rebuild command", version, mode, msg)
			}
		}
	}
}

func TestSerializeTruncated(t *testing.T) {
	ix := buildTestIndex(t)
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for _, cut := range []int{0, 3, 10, len(data) / 2, len(data) - 1} {
		mustReject(t, fmt.Sprintf("truncation at %d", cut), data[:cut])
	}
	mustReject(t, "trailing bytes", append(append([]byte(nil), data...), 0))
}

// buildPlainIndex builds an index with no mods and no explicit ion
// series, giving the serialized header its smallest fixed layout.
func buildPlainIndex(t *testing.T) *Index {
	t.Helper()
	params := DefaultParams()
	params.Mods = mods.Config{}
	ix, err := Build([]string{"PEPTIDEK", "NQKCMAAR", "AAAAGGGGK"}, params)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// loadBytes writes an SLMX image to a temporary file and opens it with
// LoadFile, the heap open every round trip in these tests goes through.
func loadBytes(t *testing.T, data []byte) (*Index, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "image.slm")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return LoadFile(path)
}

// headerOffsets computes the fixed header geometry of ix's image: the
// file offsets of the section table and the header CRC, and the total
// header length.
func headerOffsets(ix *Index) (tableOff, crcOff, headerLen int) {
	tableOff = len(indexMagic) + 4 + int(paramsBlockLen(ix.params)) + 4
	crcOff = tableOff + sectionTableEntries*sectionEntryBytes
	headerLen = crcOff + 4
	return
}

// refixHeaderCRC recomputes the header CRC after a test mutates header
// bytes, so the mutation under test — not the CRC — is what the reader
// trips on.
func refixHeaderCRC(data []byte, crcOff int) {
	crc := crc32.ChecksumIEEE(data[len(indexMagic):crcOff])
	binary.LittleEndian.PutUint32(data[crcOff:], crc)
}

// mustReject asserts both open modes refuse the corrupt image: the heap
// open (LoadFile, which verifies eagerly) and the mapped open, which
// validates the header eagerly and section content lazily, so its
// rejection surface is OpenIndexMapped + Verify.
func mustReject(t *testing.T, name string, data []byte) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "bad.slm")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(path); err == nil {
		t.Errorf("%s: LoadFile accepted corrupt input", name)
	}
	ix, err := OpenIndexMapped(path)
	if err == nil {
		err = ix.Verify()
		ix.Close()
	}
	if err == nil {
		t.Errorf("%s: OpenIndexMapped+Verify accepted corrupt input", name)
	}
}

// TestSerializeCorruptSectionTable drives the section-table defenses: a
// corrupt section CRC, overlapping / misordered / misaligned section
// offsets, forged counts, a violated header CRC and nonzero padding must
// all be rejected by both LoadFile and OpenIndexMapped.
func TestSerializeCorruptSectionTable(t *testing.T) {
	ix := buildTestIndex(t)
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	tableOff, crcOff, headerLen := headerOffsets(ix)
	layout := fileLayout(int64(headerLen), [sectionTableEntries]int64{
		int64(len(ix.rows)), int64(len(ix.offsets)), int64(len(ix.ids)),
		int64(len(ix.perm)), int64(len(ix.precs)),
	})
	// With no explicit ion series, the first mod's name length follows
	// the fixed-size part of the params block.
	if len(ix.params.IonSeries) != 0 || len(ix.params.Mods.Mods) == 0 {
		t.Fatal("test index must carry mods and the default ion series")
	}
	nameLenOff := len(indexMagic) + 4 + int(paramsBlockLen(Params{}))

	le := binary.LittleEndian
	// Layout sanity: entry 0's offset field must hold the canonical
	// rows offset before we start mutating.
	if got := le.Uint64(valid[tableOff:]); got != uint64(layout.offs[0]) {
		t.Fatalf("layout drift: rows offset field holds %d, want %d", got, layout.offs[0])
	}

	entry := func(data []byte, i int) []byte { return data[tableOff+i*sectionEntryBytes:] }
	cases := []struct {
		name   string
		mutate func(data []byte)
	}{
		{"rows section CRC flipped", func(d []byte) {
			le.PutUint32(entry(d, 0)[16:], le.Uint32(entry(d, 0)[16:])^0xDEADBEEF)
		}},
		{"ids section CRC flipped", func(d []byte) {
			le.PutUint32(entry(d, 2)[16:], le.Uint32(entry(d, 2)[16:])^1)
		}},
		{"perm section CRC flipped", func(d []byte) {
			le.PutUint32(entry(d, 3)[16:], le.Uint32(entry(d, 3)[16:])^1)
		}},
		{"precs section CRC flipped", func(d []byte) {
			le.PutUint32(entry(d, 4)[16:], le.Uint32(entry(d, 4)[16:])^1)
		}},
		{"sections overlap", func(d []byte) {
			le.PutUint64(entry(d, 1)[0:], uint64(layout.offs[0])) // offsets atop rows
		}},
		{"sections misordered", func(d []byte) {
			le.PutUint64(entry(d, 0)[0:], uint64(layout.offs[2]))
			le.PutUint64(entry(d, 2)[0:], uint64(layout.offs[0]))
		}},
		{"section misaligned", func(d []byte) {
			le.PutUint64(entry(d, 0)[0:], uint64(layout.offs[0])+8)
		}},
		{"section beyond input", func(d []byte) {
			le.PutUint64(entry(d, 4)[0:], 1<<40)
		}},
		{"rows count forged", func(d []byte) {
			le.PutUint64(entry(d, 0)[8:], uint64(len(ix.rows))+7)
		}},
		{"offsets count vs buckets", func(d []byte) {
			le.PutUint64(entry(d, 1)[8:], uint64(len(ix.offsets))+1)
		}},
		{"perm count vs rows", func(d []byte) {
			le.PutUint64(entry(d, 3)[8:], uint64(len(ix.perm))+1)
		}},
		{"precs count vs rows", func(d []byte) {
			le.PutUint64(entry(d, 4)[8:], uint64(len(ix.precs))-1)
		}},
		{"bucket count forged", func(d []byte) {
			le.PutUint32(d[tableOff-4:], 0xFFFFFFFF)
		}},
		{"mod name length forged", func(d []byte) {
			le.PutUint32(d[nameLenOff:], 0xFFFFFF)
		}},
		{"mod count forged", func(d []byte) {
			le.PutUint32(d[nameLenOff-8:], 0xFFFF)
		}},
	}
	for _, tc := range cases {
		data := append([]byte(nil), valid...)
		tc.mutate(data)
		refixHeaderCRC(data, crcOff)
		mustReject(t, tc.name, data)
	}

	// Header CRC itself violated (no re-fix).
	data := append([]byte(nil), valid...)
	data[tableOff] ^= 0xFF
	mustReject(t, "header CRC mismatch", data)

	// Nonzero padding: the byte right after the header is inside the
	// alignment gap (the params block guarantees headerLen < rows offset).
	if int64(headerLen) < layout.offs[0] {
		data = append([]byte(nil), valid...)
		data[headerLen] = 0xAA
		mustReject(t, "nonzero padding", data)
	}

	// Truncated map: every prefix must be rejected by the mapped open.
	for _, cut := range []int{7, headerLen - 1, headerLen, int(layout.offs[2]), int(layout.offs[4]), len(valid) - 1} {
		mustReject(t, fmt.Sprintf("truncated at %d", cut), append([]byte(nil), valid[:cut]...))
	}
}

// corruptSection applies mutate to section sec of a valid v3 image, then
// re-fixes that section's table CRC and the header CRC — so the bytes
// are internally consistent and only the semantic validation (eager for
// LoadFile, deferred to Verify for the mapped open) can
// catch the corruption.
func corruptSection(t *testing.T, ix *Index, valid []byte, sec int, mutate func(data []byte, lo int64)) []byte {
	t.Helper()
	tableOff, crcOff, _ := headerOffsets(ix)
	le := binary.LittleEndian
	data := append([]byte(nil), valid...)
	entry := data[tableOff+sec*sectionEntryBytes:]
	lo := int64(le.Uint64(entry[0:8]))
	count := int64(le.Uint64(entry[8:16]))
	mutate(data, lo)
	crc := crc32.ChecksumIEEE(data[lo : lo+sectionElemBytes[sec]*count])
	le.PutUint32(entry[16:20], crc)
	refixHeaderCRC(data, crcOff)
	return data
}

// TestSerializeCorruptPrecursorOrder crafts v3 images whose bytes pass
// every CRC but violate the invariants the windowed scan relies on: a
// non-monotone precursor column, a precursor column disagreeing with the
// rows, a perm that is not a permutation, out-of-range postings and an
// unsorted bucket posting list. All must fail at open (LoadFile) or
// Verify (mapped) — never serve.
func TestSerializeCorruptPrecursorOrder(t *testing.T) {
	ix := buildTestIndex(t)
	if len(ix.rows) < 3 || len(ix.ids) < 2 {
		t.Fatal("test index too small to corrupt meaningfully")
	}
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	le := binary.LittleEndian

	// Swap the first two precs entries (distinct by construction of the
	// test corpus): the column is no longer monotone.
	if ix.precs[0] == ix.precs[1] {
		t.Fatal("first two precursors equal; pick a corpus with distinct masses")
	}
	mustReject(t, "non-monotone precursor column",
		corruptSection(t, ix, valid, 4, func(d []byte, lo int64) {
			a := le.Uint64(d[lo : lo+8])
			b := le.Uint64(d[lo+8 : lo+16])
			le.PutUint64(d[lo:lo+8], b)
			le.PutUint64(d[lo+8:lo+16], a)
		}))

	// Nudge one precs entry without breaking monotonicity: it now
	// disagrees with the row it claims to mirror.
	mustReject(t, "precursor column disagrees with rows",
		corruptSection(t, ix, valid, 4, func(d []byte, lo int64) {
			v := math.Float64frombits(le.Uint64(d[lo : lo+8]))
			le.PutUint64(d[lo:lo+8], math.Float64bits(v-0.25))
		}))

	// Duplicate a perm entry: no longer a permutation.
	mustReject(t, "perm is not a permutation",
		corruptSection(t, ix, valid, 3, func(d []byte, lo int64) {
			le.PutUint32(d[lo:lo+4], le.Uint32(d[lo+4:lo+8]))
		}))

	// Out-of-range perm entry.
	mustReject(t, "perm entry out of range",
		corruptSection(t, ix, valid, 3, func(d []byte, lo int64) {
			le.PutUint32(d[lo:lo+4], uint32(len(ix.rows)))
		}))

	// Out-of-range posting.
	mustReject(t, "posting out of range",
		corruptSection(t, ix, valid, 2, func(d []byte, lo int64) {
			le.PutUint32(d[lo:lo+4], uint32(len(ix.rows)))
		}))

	// Reverse a bucket's posting list (the first bucket holding two
	// distinct sorted positions): the windowed binary search would skip
	// real matches, so the file must be rejected.
	swapped := false
	for b := 0; b < ix.numBuckets && !swapped; b++ {
		s, e := ix.offsets[b], ix.offsets[b+1]
		for i := s + 1; i < e; i++ {
			if ix.ids[i] != ix.ids[i-1] {
				mustReject(t, "unsorted bucket posting list",
					corruptSection(t, ix, valid, 2, func(d []byte, lo int64) {
						pa, pb := lo+4*int64(i-1), lo+4*int64(i)
						a := le.Uint32(d[pa : pa+4])
						bv := le.Uint32(d[pb : pb+4])
						le.PutUint32(d[pa:pa+4], bv)
						le.PutUint32(d[pb:pb+4], a)
					}))
				swapped = true
				break
			}
		}
	}
	if !swapped {
		t.Error("no bucket with two distinct postings; unsorted-bucket case not exercised")
	}
}

// failAfterWriter accepts exactly budget bytes, then fails.
type failAfterWriter struct {
	budget int
	n      int
}

var errWriterFull = errors.New("writer full")

func (w *failAfterWriter) Write(p []byte) (int, error) {
	if w.n >= w.budget {
		return 0, errWriterFull
	}
	take := min(len(p), w.budget-w.n)
	w.n += take
	if take < len(p) {
		return take, errWriterFull
	}
	return take, nil
}

// TestWriteToReportsPartialCount pins the io.WriterTo contract: on a
// mid-stream write error, WriteTo must return the number of bytes the
// destination actually accepted, not zero.
func TestWriteToReportsPartialCount(t *testing.T) {
	ix := buildTestIndex(t)
	var buf bytes.Buffer
	total, err := ix.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, budget := range []int{0, 1, 3, 7, 64, 100, 4096, int(total) - 1} {
		w := &failAfterWriter{budget: budget}
		n, err := ix.WriteTo(w)
		if !errors.Is(err, errWriterFull) {
			t.Fatalf("budget %d: want errWriterFull, got %v", budget, err)
		}
		if n != int64(w.n) {
			t.Errorf("budget %d: WriteTo reported %d bytes, destination accepted %d", budget, n, w.n)
		}
		if n >= total {
			t.Errorf("budget %d: partial write reported %d >= full size %d", budget, n, total)
		}
	}
}

func TestSerializePreservesTolerances(t *testing.T) {
	params := DefaultParams()
	params.Mods.MaxPerPep = 0
	params.PrecursorTol = mass.Ppm(20)
	ix, err := Build([]string{"PEPTIDEK"}, params)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := loadBytes(t, buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got.Params().PrecursorTol != mass.Ppm(20) {
		t.Errorf("ppm tolerance not preserved: %+v", got.Params().PrecursorTol)
	}
}

// TestReadIndexAllocationBounded asserts the core promise of the
// hardened reader: a ~200-byte input whose header forges 2^28 rows (4 GiB
// of row records, plus matching perm and precs counts, every entry at
// its canonical offset and the header CRC re-fixed, so only the counts
// themselves are at fault) is rejected, and opening it allocates in
// proportion to the input, not to the forged count.
func TestReadIndexAllocationBounded(t *testing.T) {
	ix := buildPlainIndex(t)
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	tableOff, crcOff, headerLen := headerOffsets(ix)
	data := append([]byte(nil), buf.Bytes()[:headerLen]...)
	counts := [sectionTableEntries]int64{1 << 28, int64(len(ix.offsets)), int64(len(ix.ids)), 1 << 28, 1 << 28}
	forged := fileLayout(int64(headerLen), counts)
	le := binary.LittleEndian
	for i := range counts {
		le.PutUint64(data[tableOff+i*sectionEntryBytes:], uint64(forged.offs[i]))
		le.PutUint64(data[tableOff+i*sectionEntryBytes+8:], uint64(counts[i]))
	}
	refixHeaderCRC(data, crcOff)
	data = append(data, make([]byte, int(forged.offs[0])-headerLen)...) // the zero padding
	if len(data) > 256 {
		t.Fatalf("forged input is %d bytes; the test wants a ~200-byte one", len(data))
	}
	path := filepath.Join(t.TempDir(), "forged.slm")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	const opens = 16
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < opens; i++ {
		if _, err := LoadFile(path); err == nil {
			t.Fatal("LoadFile accepted a header forging 2^28 rows")
		}
		if _, err := OpenIndexMapped(path); err == nil {
			t.Fatal("OpenIndexMapped accepted a header forging 2^28 rows")
		}
	}
	runtime.ReadMemStats(&after)
	// Each open costs the file handle, the error text and at most one
	// copy of the input: a few KiB, against the 4 GiB the count claims.
	if perOpen := (after.TotalAlloc - before.TotalAlloc) / (2 * opens); perOpen > 16<<10 {
		t.Errorf("an open of a %d-byte forged input allocated %d bytes; the forged count leaked into allocation",
			len(data), perOpen)
	}
}

package slm

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"lbe/internal/mods"
)

// FuzzReadIndex hammers the SLMX reader with arbitrary bytes through
// both open modes. Neither may panic, hang, or allocate proportionally
// to a forged count field; they must accept and reject exactly the same
// inputs; and any accepted input must be the canonical image of its
// index — WriteTo reproduces it byte for byte.
func FuzzReadIndex(f *testing.F) {
	params := DefaultParams()
	params.Mods.MaxPerPep = 1
	ix, err := Build([]string{"PEPTIDEK", "NQKCMAAR"}, params)
	if err != nil {
		f.Fatal(err)
	}
	var valid bytes.Buffer
	if _, err := ix.WriteTo(&valid); err != nil {
		f.Fatal(err)
	}
	empty, err := Build(nil, DefaultParams())
	if err != nil {
		f.Fatal(err)
	}
	var emptyBuf bytes.Buffer
	if _, err := empty.WriteTo(&emptyBuf); err != nil {
		f.Fatal(err)
	}

	// A mods-free index gives the header its smallest fixed layout, so
	// count fields sit at offsets the seeds below can forge.
	plainParams := DefaultParams()
	plainParams.Mods = mods.Config{}
	plain, err := Build([]string{"PEPTIDEK"}, plainParams)
	if err != nil {
		f.Fatal(err)
	}
	tableOff, crcOff, headerLen := headerOffsets(plain)
	var plainV3 bytes.Buffer
	if _, err := plain.WriteTo(&plainV3); err != nil {
		f.Fatal(err)
	}
	// withVersion patches the version field of a valid image and re-fixes
	// the header CRC: the retired-format refusal under fuzz.
	withVersion := func(v uint32) []byte {
		d := append([]byte(nil), plainV3.Bytes()...)
		binary.LittleEndian.PutUint32(d[len(indexMagic):], v)
		refixHeaderCRC(d, crcOff)
		return d
	}

	f.Add(valid.Bytes())
	f.Add(emptyBuf.Bytes())
	f.Add(valid.Bytes()[:len(valid.Bytes())/2])
	f.Add(withVersion(1))
	f.Add([]byte("SLMX"))
	f.Add([]byte("NOPE"))
	// A truncated header claiming a gigantic bucket count.
	hugeBuckets := append([]byte(nil), plainV3.Bytes()[:headerLen]...)
	binary.LittleEndian.PutUint32(hugeBuckets[tableOff-4:], 0xFFFFFFFF)
	refixHeaderCRC(hugeBuckets, crcOff)
	f.Add(hugeBuckets)
	// A mods-bearing header whose first mod name claims 4 GiB.
	_, modsCRCOff, _ := headerOffsets(ix)
	hugeName := append([]byte(nil), valid.Bytes()...)
	binary.LittleEndian.PutUint32(hugeName[len(indexMagic)+4+int(paramsBlockLen(Params{}))+len(ix.params.IonSeries):], 0xFFFFFFFF)
	refixHeaderCRC(hugeName, modsCRCOff)
	f.Add(hugeName)
	// A forged section table — gigantic rows count at the canonical
	// offsets with a re-fixed header CRC — and a corrupt section CRC in
	// an otherwise intact file.
	forged := append([]byte(nil), plainV3.Bytes()[:headerLen]...)
	binary.LittleEndian.PutUint64(forged[tableOff+8:], 1<<27)
	refixHeaderCRC(forged, crcOff)
	f.Add(forged)
	badSec := append([]byte(nil), plainV3.Bytes()...)
	badSec[len(badSec)-1] ^= 0xFF
	f.Add(badSec)

	// The other retired version, and an image with a byte past its last
	// section.
	f.Add(withVersion(2))
	f.Add(append(append([]byte(nil), plainV3.Bytes()...), 0))

	// Semantic-corruption seeds: bytes whose CRCs all verify but whose
	// precursor-order invariants are broken. The reader must reject, not
	// mis-serve, each of them.
	//   entry 4 (precs): first two entries swapped — non-monotone column,
	//   and one that also disagrees with the rows it mirrors.
	//   entry 3 (perm): first entry duplicated — not a permutation.
	//   entry 3 (perm): count forged to mismatch rows.
	v3 := plainV3.Bytes()
	secCorrupt := func(sec int, mutate func(d []byte, lo int64)) []byte {
		d := append([]byte(nil), v3...)
		entry := d[tableOff+sec*sectionEntryBytes:]
		lo := int64(binary.LittleEndian.Uint64(entry[0:8]))
		count := int64(binary.LittleEndian.Uint64(entry[8:16]))
		mutate(d, lo)
		binary.LittleEndian.PutUint32(entry[16:20],
			crc32.ChecksumIEEE(d[lo:lo+sectionElemBytes[sec]*count]))
		refixHeaderCRC(d, crcOff)
		return d
	}
	if plain.NumRows() >= 2 {
		f.Add(secCorrupt(4, func(d []byte, lo int64) {
			a := binary.LittleEndian.Uint64(d[lo : lo+8])
			b := binary.LittleEndian.Uint64(d[lo+8 : lo+16])
			binary.LittleEndian.PutUint64(d[lo:lo+8], b)
			binary.LittleEndian.PutUint64(d[lo+8:lo+16], a)
		}))
		f.Add(secCorrupt(3, func(d []byte, lo int64) {
			binary.LittleEndian.PutUint32(d[lo:lo+4], binary.LittleEndian.Uint32(d[lo+4:lo+8]))
		}))
	}
	permMismatch := append([]byte(nil), v3...)
	binary.LittleEndian.PutUint64(permMismatch[tableOff+3*sectionEntryBytes+8:], uint64(plain.NumRows())+1)
	refixHeaderCRC(permMismatch, crcOff)
	f.Add(permMismatch)

	// One input file per fuzzing process: inputs run one at a time, and
	// each iteration closes its mapping before the next rewrites the file.
	path := filepath.Join(f.TempDir(), "input.slm")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}

		heap, heapErr := LoadFile(path)
		mapped, mapErr := OpenIndexMapped(path)
		if mapErr == nil {
			mapErr = mapped.Verify()
			defer mapped.Close()
		}
		if (heapErr == nil) != (mapErr == nil) {
			t.Fatalf("open modes disagree: LoadFile %v, OpenIndexMapped+Verify %v", heapErr, mapErr)
		}
		if heapErr != nil {
			return
		}
		var buf bytes.Buffer
		if _, err := heap.WriteTo(&buf); err != nil {
			t.Fatalf("re-serializing an accepted index failed: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), data) {
			t.Fatalf("accepted %d-byte input re-serializes to %d different bytes", len(data), buf.Len())
		}
	})
}

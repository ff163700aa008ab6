package slm

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"unsafe"

	"lbe/internal/mass"
	"lbe/internal/mmapio"
	"lbe/internal/mods"
	"lbe/internal/spectrum"
)

// Binary index format ("SLMX"): the paper's shared-memory design stores
// index chunks on disk when not in use (§II-B); this file gives the index
// a compact, checksummed serialization so partial indexes can be spilled
// and reloaded.
//
// There is one format, version 3 (little-endian), written by WriteTo:
//
//	magic "SLMX" | version u32 | params block | numBuckets u32 |
//	section table (5 × {offset u64, count u64, crc32 u32}) | header crc32 |
//	padding | rows | padding | offsets | padding | ids |
//	padding | perm | padding | precs
//
// The header CRC covers everything between the magic and itself. Each
// data section starts at a 64-byte-aligned file offset recorded in the
// table, holds count fixed-size records (rows are the in-memory 16-byte
// Row layout; offsets, ids and perm are u32; precs is f64), and carries
// its own CRC. Padding is zero and the file ends at the last section.
// Section offsets are canonical — derivable from the header size alone —
// so a table naming overlapping, misordered or misaligned sections is
// rejected outright, and every accepted file is exactly the bytes
// WriteTo would produce for the index it holds.
//
// ids postings hold mass-sorted row positions (each bucket ascending),
// perm maps sorted position → row id, and precs is the ascending
// precursor column the windowed scan binary searches.
//
// Every open — memory-mapped (OpenIndexMapped) or heap-read (LoadFile) —
// runs the same parser, viewIndex, over an aligned image of the file:
// the index's arrays are zero-copy views of those bytes. The header is
// checked at open; section CRCs, padding and the CSR shape are checked
// by Verify, which LoadFile runs before returning and a mapped open
// defers to the first query. Counts come from the input, so each is
// bounded by an absolute cap and by the bytes actually present before
// anything depends on it; nothing is allocated in proportion to a count.
//
// Stores written in the retired versions 1 and 2 are refused with a
// *StaleVersionError: an SLMX file is derived data, rebuilt from FASTA
// with lbe-index. Big-endian hosts are refused with ErrBigEndian.

const (
	indexMagic   = "SLMX"
	indexVersion = 3

	// sectionAlign is the file-offset alignment of every data section: a
	// cache line, and a divisor of the page size, so a page-aligned
	// mapping yields aligned (and cache-line-friendly) array views.
	sectionAlign = 64

	// sectionTableEntries and sectionEntryBytes fix the table shape: rows,
	// offsets, ids, perm, precs — each {offset u64, count u64, crc32 u32}.
	sectionTableEntries = 5
	sectionEntryBytes   = 8 + 8 + 4

	// Absolute sanity caps on count fields, checked before a count is
	// used. They bound a single shard file at sizes far beyond the
	// paper's full 49.45M-spectra run.
	maxStringLen    = 1 << 20
	maxModCount     = 1 << 16
	maxSeriesCount  = 16
	maxRowCount     = 1 << 28
	maxBucketCount  = 1 << 30
	maxPostingCount = 1 << 30
)

// ErrBigEndian is returned by every SLMX open and write on a big-endian
// host: the format's arrays are served as in-memory views of the
// little-endian file bytes.
var ErrBigEndian = errors.New("SLMX stores need a little-endian host")

// StaleVersionError reports an SLMX file written in a retired format
// version. Such files are not migrated; rebuild the store instead.
type StaleVersionError struct {
	Version uint32
}

func (e *StaleVersionError) Error() string {
	return fmt.Sprintf("SLMX version %d predates version %d, the only one this build reads; "+
		"rebuild the store from FASTA with lbe-index -out", e.Version, indexVersion)
}

// isLittleEndian reports whether the host lays out multi-byte integers
// the way the SLMX wire format does.
var isLittleEndian = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// rowsBytes returns the raw byte view of a Row slice: on a little-endian
// host, exactly its SLMX wire bytes.
func rowsBytes(rows []Row) []byte {
	if len(rows) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&rows[0])), rowMemBytes*len(rows))
}

// u32sBytes returns the raw byte view of a uint32 slice.
func u32sBytes(vs []uint32) []byte {
	if len(vs) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&vs[0])), 4*len(vs))
}

// f64sBytes returns the raw byte view of a float64 slice.
func f64sBytes(vs []float64) []byte {
	if len(vs) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&vs[0])), 8*len(vs))
}

// sectionElemBytes[i] is the wire size of one element of section i:
// rows, offsets, ids, perm, precs.
var sectionElemBytes = [sectionTableEntries]int64{rowMemBytes, 4, 4, 4, 8}

// countWriter counts the bytes the underlying writer actually accepted,
// so WriteTo can report a faithful running total on mid-stream errors.
type countWriter struct {
	w io.Writer
	n int64
}

func (cw *countWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}

type crcWriter struct {
	w   io.Writer
	crc uint32
	n   int64
}

func (cw *crcWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.crc = crc32.Update(cw.crc, crc32.IEEETable, p[:n])
	cw.n += int64(n)
	return n, err
}

// indexEncoder writes the header fields with a sticky error, without
// reflection-based binary.Write. The byte layout is identical to
// encoding each field with binary.Write.
type indexEncoder struct {
	cw  *crcWriter
	err error
}

func (e *indexEncoder) write(b []byte) {
	if e.err != nil {
		return
	}
	_, e.err = e.cw.Write(b)
}

func (e *indexEncoder) u8(v uint8) { e.write([]byte{v}) }

func (e *indexEncoder) u32(v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	e.write(b[:])
}

func (e *indexEncoder) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	e.write(b[:])
}

func (e *indexEncoder) f64(v float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
	e.write(b[:])
}

func (e *indexEncoder) str(s string) {
	e.u32(uint32(len(s)))
	if e.err == nil {
		_, e.err = io.WriteString(e.cw, s)
	}
}

// pad writes n zero bytes.
func (e *indexEncoder) pad(n int64) {
	var zeros [sectionAlign]byte
	for n > 0 && e.err == nil {
		take := min(n, int64(len(zeros)))
		e.write(zeros[:take])
		n -= take
	}
}

// params encodes the params block.
func (e *indexEncoder) params(p Params) {
	e.f64(p.Resolution)
	e.f64(p.FragmentTol.Value)
	e.u8(uint8(p.FragmentTol.Unit))
	e.f64(p.PrecursorTol.Value)
	e.u8(uint8(p.PrecursorTol.Unit))
	e.u32(uint32(p.MinSharedPeaks))
	e.u32(uint32(p.MaxQueryPeaks))
	e.f64(p.MaxFragmentMZ)
	e.u32(uint32(p.Mods.MaxPerPep))
	e.u32(uint32(p.Mods.MaxVariant))
	e.u32(uint32(len(p.Mods.Mods)))
	e.u32(uint32(len(p.IonSeries)))
	for _, k := range p.IonSeries {
		e.u8(uint8(k))
	}
	for _, m := range p.Mods.Mods {
		e.str(m.Name)
		e.str(m.Residues)
		e.f64(m.Delta)
	}
}

// checkEncodable rejects an index whose counts exceed the decoder caps,
// so WriteTo can never persist a file the reader refuses (or, past
// uint32, silently truncates), and refuses big-endian hosts, whose
// in-memory arrays are not the wire bytes.
func (ix *Index) checkEncodable() error {
	if !isLittleEndian {
		return fmt.Errorf("slm: %w", ErrBigEndian)
	}
	if len(ix.rows) > maxRowCount {
		return fmt.Errorf("slm: %d rows exceed the serializable cap %d", len(ix.rows), maxRowCount)
	}
	if ix.numBuckets > maxBucketCount || len(ix.offsets) > maxBucketCount+1 {
		return fmt.Errorf("slm: %d buckets exceed the serializable cap %d", ix.numBuckets, maxBucketCount)
	}
	if len(ix.ids) > maxPostingCount {
		return fmt.Errorf("slm: %d postings exceed the serializable cap %d", len(ix.ids), maxPostingCount)
	}
	p := ix.params
	if len(p.Mods.Mods) > maxModCount {
		return fmt.Errorf("slm: %d mods exceed the serializable cap %d", len(p.Mods.Mods), maxModCount)
	}
	if len(p.IonSeries) > maxSeriesCount {
		return fmt.Errorf("slm: %d ion series exceed the serializable cap %d", len(p.IonSeries), maxSeriesCount)
	}
	for _, m := range p.Mods.Mods {
		if len(m.Name) > maxStringLen || len(m.Residues) > maxStringLen {
			return fmt.Errorf("slm: mod %q has a string over the serializable cap %d", m.Name, maxStringLen)
		}
	}
	return nil
}

// sectionLayout is the computed file geometry: canonical aligned section
// offsets derived from the header size.
type sectionLayout struct {
	offs [sectionTableEntries]int64
	end  int64 // total file size
}

// alignUp rounds n up to the next multiple of sectionAlign.
func alignUp(n int64) int64 {
	return (n + sectionAlign - 1) &^ (sectionAlign - 1)
}

// fileLayout derives the canonical section offsets for an index whose
// header (magic through header CRC) spans headerLen bytes and whose
// sections hold counts[i] elements each.
func fileLayout(headerLen int64, counts [sectionTableEntries]int64) sectionLayout {
	var l sectionLayout
	off := headerLen
	for i := range counts {
		off = alignUp(off)
		l.offs[i] = off
		off += sectionElemBytes[i] * counts[i]
	}
	l.end = off
	return l
}

// paramsBlockLen returns the encoded byte length of the params block.
func paramsBlockLen(p Params) int64 {
	n := int64(8 + 8 + 1 + 8 + 1 + 4 + 4 + 8 + 4 + 4 + 4 + 4)
	n += int64(len(p.IonSeries))
	for _, m := range p.Mods.Mods {
		n += 4 + int64(len(m.Name)) + 4 + int64(len(m.Residues)) + 8
	}
	return n
}

// WriteTo serializes the index in the SLMX format. It implements
// io.WriterTo: on error it returns the number of bytes the underlying
// writer actually accepted before the failure, not zero.
func (ix *Index) WriteTo(w io.Writer) (int64, error) {
	// A mapped index defers content validation; run it before
	// re-encoding, or a corrupt mapping would be rewritten under fresh
	// CRCs that bless the corruption.
	if err := ix.Verify(); err != nil {
		return 0, err
	}
	if err := ix.checkEncodable(); err != nil {
		return 0, err
	}
	sections := [sectionTableEntries][]byte{
		rowsBytes(ix.rows), u32sBytes(ix.offsets), u32sBytes(ix.ids),
		u32sBytes(ix.perm), f64sBytes(ix.precs),
	}
	var counts [sectionTableEntries]int64
	var crcs [sectionTableEntries]uint32
	for i, sec := range sections {
		counts[i] = int64(len(sec)) / sectionElemBytes[i]
		crcs[i] = crc32.ChecksumIEEE(sec)
	}
	headerLen := int64(len(indexMagic)) + 4 + paramsBlockLen(ix.params) + 4 +
		sectionTableEntries*sectionEntryBytes + 4
	layout := fileLayout(headerLen, counts)

	bot := &countWriter{w: w}
	bw := bufio.NewWriter(bot)
	if _, err := bw.WriteString(indexMagic); err != nil {
		bw.Flush()
		return bot.n, err
	}
	cw := &crcWriter{w: bw}
	e := &indexEncoder{cw: cw}

	e.u32(indexVersion)
	e.params(ix.params)
	e.u32(uint32(ix.numBuckets))
	for i := range sections {
		e.u64(uint64(layout.offs[i]))
		e.u64(uint64(counts[i]))
		e.u32(crcs[i])
	}
	e.u32(cw.crc) // header CRC: covers version..section table

	pos := func() int64 { return int64(len(indexMagic)) + cw.n }
	for i, sec := range sections {
		e.pad(layout.offs[i] - pos())
		e.write(sec)
	}
	if e.err != nil {
		bw.Flush()
		return bot.n, e.err
	}
	if err := bw.Flush(); err != nil {
		return bot.n, err
	}
	if got := pos(); got != layout.end {
		return bot.n, fmt.Errorf("slm: internal: wrote %d bytes, layout says %d", got, layout.end)
	}
	return bot.n, nil
}

// headerReader walks an SLMX header in place. Its first failure — a
// read past the end of the input or an implausible count — is sticky,
// so a parse checks err once instead of after every field.
type headerReader struct {
	data []byte
	off  int
	err  error
}

// next returns the following n bytes, or nil once the input is
// exhausted.
func (r *headerReader) next(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n > len(r.data)-r.off {
		r.err = fmt.Errorf("header truncated: %d bytes needed at offset %d of %d", n, r.off, len(r.data))
		return nil
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b
}

func (r *headerReader) u8() uint8 {
	if b := r.next(1); b != nil {
		return b[0]
	}
	return 0
}

func (r *headerReader) u32() uint32 {
	if b := r.next(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (r *headerReader) u64() uint64 {
	if b := r.next(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

func (r *headerReader) f64() float64 { return math.Float64frombits(r.u64()) }

func (r *headerReader) str() string {
	n := r.u32()
	r.checkCount(uint64(n), 1, maxStringLen, "string byte")
	return string(r.next(int(n)))
}

// checkCount validates a count field before it is used: n elements of
// elem bytes each must fit under the absolute cap and in the input bytes
// not yet read.
func (r *headerReader) checkCount(n uint64, elem int64, limit uint64, what string) {
	if r.err != nil {
		return
	}
	if n > limit {
		r.err = fmt.Errorf("%s count %d implausible (cap %d)", what, n, limit)
		return
	}
	if rem := int64(len(r.data) - r.off); int64(n) > rem/elem {
		r.err = fmt.Errorf("%s count %d needs %d bytes but only %d remain (truncated or corrupt)",
			what, n, int64(n)*elem, rem)
	}
}

// readParams decodes the params block.
func (r *headerReader) readParams(p *Params) {
	p.Resolution = r.f64()
	p.FragmentTol.Value = r.f64()
	p.FragmentTol.Unit = mass.ToleranceUnit(r.u8())
	p.PrecursorTol.Value = r.f64()
	p.PrecursorTol.Unit = mass.ToleranceUnit(r.u8())
	p.MinSharedPeaks = int(r.u32())
	p.MaxQueryPeaks = int(r.u32())
	p.MaxFragmentMZ = r.f64()
	p.Mods.MaxPerPep = int(r.u32())
	p.Mods.MaxVariant = int(r.u32())
	nmods := r.u32()
	nseries := r.u32()
	r.checkCount(uint64(nmods), 16, maxModCount, "mod")
	r.checkCount(uint64(nseries), 1, maxSeriesCount, "ion series")
	for i := uint32(0); i < nseries && r.err == nil; i++ {
		p.IonSeries = append(p.IonSeries, spectrum.IonKind(r.u8()))
	}
	for i := uint32(0); i < nmods && r.err == nil; i++ {
		var m mods.Mod
		m.Name = r.str()
		m.Residues = r.str()
		m.Delta = r.f64()
		p.Mods.Mods = append(p.Mods.Mods, m)
	}
}

// sectionEntry is one decoded section-table record.
type sectionEntry struct {
	off   uint64
	count uint64
	crc   uint32
}

// fileHeader is the decoded header: everything before the first data
// section.
type fileHeader struct {
	params     Params
	numBuckets uint32
	secs       [sectionTableEntries]sectionEntry // rows, offsets, ids, perm, precs
	headerLen  int64                             // magic through header CRC
}

// readHeader decodes and validates the header of the SLMX image data:
// magic and version, then the header CRC, then the section table against
// the canonical layout — ordered, 64-byte aligned, non-overlapping
// offsets derived from the header size, counts under the absolute caps
// and the input size, perm and precs holding one entry per row, and the
// image ending exactly at the last section. All of this is O(header):
// no section byte is touched, so a mapped open stays cheap.
func readHeader(data []byte) (*fileHeader, error) {
	if len(data) < len(indexMagic)+4 {
		return nil, fmt.Errorf("input of %d bytes is too short for an index", len(data))
	}
	if string(data[:len(indexMagic)]) != indexMagic {
		return nil, fmt.Errorf("bad magic %q", data[:len(indexMagic)])
	}
	r := &headerReader{data: data, off: len(indexMagic)}
	switch version := r.u32(); version {
	case indexVersion:
	case 1, 2:
		return nil, &StaleVersionError{Version: version}
	default:
		return nil, fmt.Errorf("unsupported index version %d (want %d)", version, indexVersion)
	}
	h := &fileHeader{}
	r.readParams(&h.params)
	h.numBuckets = r.u32()
	for i := range h.secs {
		s := &h.secs[i]
		s.off = r.u64()
		s.count = r.u64()
		s.crc = r.u32()
	}
	crcEnd := r.off
	got := r.u32()
	if r.err != nil {
		return nil, r.err
	}
	if want := crc32.ChecksumIEEE(data[len(indexMagic):crcEnd]); got != want {
		return nil, fmt.Errorf("header checksum mismatch: file %08x, computed %08x", got, want)
	}
	h.headerLen = int64(r.off)

	rows, offs, ids, perm, precs := h.secs[0], h.secs[1], h.secs[2], h.secs[3], h.secs[4]
	r.checkCount(rows.count, rowMemBytes, maxRowCount, "row")
	r.checkCount(uint64(h.numBuckets), 4, maxBucketCount, "bucket")
	if offs.count != uint64(h.numBuckets)+1 && !(h.numBuckets == 0 && offs.count <= 1) {
		return nil, fmt.Errorf("offsets length %d does not match %d buckets", offs.count, h.numBuckets)
	}
	r.checkCount(offs.count, 4, maxBucketCount+1, "offset")
	r.checkCount(ids.count, 4, maxPostingCount, "posting")
	if perm.count != rows.count || precs.count != rows.count {
		return nil, fmt.Errorf("precursor-order sections of %d/%d entries do not match %d rows",
			perm.count, precs.count, rows.count)
	}
	if r.err != nil {
		return nil, r.err
	}
	var counts [sectionTableEntries]int64
	for i, s := range h.secs {
		counts[i] = int64(s.count)
	}
	layout := fileLayout(h.headerLen, counts)
	for i, s := range h.secs {
		if int64(s.off) != layout.offs[i] {
			return nil, fmt.Errorf("section %d at offset %d, canonical layout says %d (overlapping, misordered or misaligned sections)",
				i, s.off, layout.offs[i])
		}
	}
	if size := int64(len(data)); layout.end != size {
		return nil, fmt.Errorf("sections end at byte %d but the input holds %d (truncated, extended or corrupt)",
			layout.end, size)
	}
	return h, nil
}

// validateShape runs the cross-array sanity checks of Verify: monotone
// offsets ending at the posting count, in-range postings, sane row
// precursors, perm a true permutation, precs ascending and agreeing with
// the rows, every bucket's posting list sorted. The windowed scan trusts
// all of these, so a corrupt file claiming them must be rejected here
// rather than silently dropping matches.
func (ix *Index) validateShape() error {
	for i := 1; i < len(ix.offsets); i++ {
		if ix.offsets[i] < ix.offsets[i-1] {
			return fmt.Errorf("slm: corrupt offsets at %d", i)
		}
	}
	if len(ix.offsets) > 0 && ix.offsets[len(ix.offsets)-1] != uint32(len(ix.ids)) {
		return fmt.Errorf("slm: offsets end %d != %d postings", ix.offsets[len(ix.offsets)-1], len(ix.ids))
	}
	for i, v := range ix.ids {
		if v >= uint32(len(ix.rows)) {
			return fmt.Errorf("slm: posting %d references row %d of %d", i, v, len(ix.rows))
		}
	}
	for _, r := range ix.rows {
		if math.IsNaN(r.Precursor) || r.Precursor < 0 {
			return fmt.Errorf("slm: corrupt row precursor")
		}
	}
	if len(ix.perm) != len(ix.rows) || len(ix.precs) != len(ix.rows) {
		return fmt.Errorf("slm: precursor-order columns of %d/%d entries do not match %d rows",
			len(ix.perm), len(ix.precs), len(ix.rows))
	}
	seen := make([]bool, len(ix.perm))
	for s, o := range ix.perm {
		if int(o) >= len(seen) || seen[o] {
			return fmt.Errorf("slm: perm is not a permutation at %d", s)
		}
		seen[o] = true
		if ix.rows[o].Precursor != ix.precs[s] {
			return fmt.Errorf("slm: precursor column disagrees with row %d", o)
		}
	}
	for i := 1; i < len(ix.precs); i++ {
		if ix.precs[i] < ix.precs[i-1] {
			return fmt.Errorf("slm: precursor column not monotone at %d", i)
		}
	}
	for b := 0; b < ix.numBuckets; b++ {
		for i := ix.offsets[b] + 1; i < ix.offsets[b+1]; i++ {
			if ix.ids[i] < ix.ids[i-1] {
				return fmt.Errorf("slm: bucket %d posting list not sorted", b)
			}
		}
	}
	return nil
}

// SaveFile writes the index to the named file.
func (ix *Index) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := ix.WriteTo(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadFile reads an index from the named file into the heap: the file is
// read into one aligned buffer, the index's arrays are views of it, and
// the whole image is verified before LoadFile returns. It is
// OpenIndexMapped with a heap copy instead of a mapping and Verify run
// eagerly; the two accept and reject exactly the same files.
func LoadFile(path string) (*Index, error) {
	m, err := mmapio.ReadFile(path)
	if err != nil {
		return nil, err
	}
	ix, err := viewIndex(m, path)
	if err != nil {
		return nil, err
	}
	if err := ix.Verify(); err != nil {
		ix.Close()
		return nil, err
	}
	return ix, nil
}

package slm

import (
	"errors"
	"fmt"
	"hash/crc32"
	"unsafe"

	"lbe/internal/mmapio"
)

// OpenIndexMapped opens an SLMX file with its rows/offsets/ids and
// precursor-order (perm/precs) arrays backed by zero-copy views of a
// read-only memory mapping: no array is allocated or decoded, no section
// byte is read at open, and the index's resident bytes are kernel page
// cache shared with every co-located process serving the same store.
//
// Validation is split so warm-start stays O(header) instead of O(file):
// the header CRC, the canonical aligned section layout, every count cap
// and the size budget are verified eagerly — a corrupt section table is
// rejected at open — while the per-section content CRCs, the zero
// padding between sections and the CSR shape are deferred to Verify,
// which runs at most once. Search triggers Verify implicitly, so corrupt
// content is still detected before any match is produced; the engine
// calls Verify on its error path before the first query instead.
//
// The returned index owns the mapping: it stays valid until the index is
// garbage-collected or Close is called, and must not be used after
// Close. On platforms without usable mmap the file is read into an
// aligned heap buffer instead (identical results; Mapped reports false).
func OpenIndexMapped(path string) (*Index, error) {
	m, err := mmapio.Open(path)
	if err != nil {
		return nil, err
	}
	return viewIndex(m, path)
}

// OpenIndex builds an index whose arrays are views of the SLMX image in
// m — a mapping from mmapio.Open or an aligned heap copy from
// mmapio.ReadFile — checking the header now and deferring the content
// checks to Verify, exactly as OpenIndexMapped does. The index takes
// ownership of m, closing it on error and on Close.
func OpenIndex(m *mmapio.Mapping) (*Index, error) {
	return viewIndex(m, "")
}

// viewIndex is the SLMX parser: it validates the header of the image in
// m and builds an Index whose arrays alias m's bytes, leaving the
// section content checks to the deferred verifyFn. The bytes must be
// 8-byte aligned, as mappings and mmapio.ReadFile's heap copies are.
// The index owns m; on error m is closed. Errors, including the
// deferred ones, which surface far from the open call, name the file
// when it is known.
func viewIndex(m *mmapio.Mapping, name string) (_ *Index, err error) {
	where := "slm"
	if name != "" {
		where = "slm: " + name
	}
	defer func() {
		if err != nil {
			m.Close()
		}
	}()
	if !isLittleEndian {
		return nil, fmt.Errorf("%s: %w", where, ErrBigEndian)
	}
	data := m.Bytes()
	h, err := readHeader(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", where, err)
	}
	if uintptr(unsafe.Pointer(&data[0]))%8 != 0 {
		return nil, fmt.Errorf("%s: index image is not 8-byte aligned", where)
	}
	// Bounds proven by readHeader against len(data); every section
	// starts at a 64-byte offset, so each view is aligned for its type.
	section := func(i int) unsafe.Pointer { return unsafe.Pointer(&data[h.secs[i].off]) }
	ix := &Index{params: h.params, numBuckets: int(h.numBuckets), mapping: m}
	if n := int(h.secs[0].count); n > 0 {
		ix.rows = unsafe.Slice((*Row)(section(0)), n)
		ix.perm = unsafe.Slice((*uint32)(section(3)), n)
		ix.precs = unsafe.Slice((*float64)(section(4)), n)
	}
	if n := int(h.secs[1].count); n > 0 {
		ix.offsets = unsafe.Slice((*uint32)(section(1)), n)
	}
	if n := int(h.secs[2].count); n > 0 {
		ix.ids = unsafe.Slice((*uint32)(section(2)), n)
	}
	ix.buildPeak = ix.MemoryBytes()
	shape := Index{
		rows: ix.rows, offsets: ix.offsets, ids: ix.ids,
		perm: ix.perm, precs: ix.precs, numBuckets: ix.numBuckets,
	}
	ix.verifyFn = func() error {
		m.Advise(mmapio.AdviceSequential)
		defer m.Advise(mmapio.AdviceRandom)
		err := verifySections(h, data)
		if err == nil {
			err = shape.validateShape()
		}
		if err != nil {
			return fmt.Errorf("%s: %w", where, err)
		}
		return nil
	}
	return ix, nil
}

// verifySections is the deferred half of an open: one sequential pass
// computing every per-section CRC and requiring the alignment padding
// between sections (the one region no section CRC covers) to be zero.
// On a mapping the pass faults in the whole file, so the first Search
// after it runs against a warm mapping.
func verifySections(h *fileHeader, data []byte) error {
	end := h.headerLen // end of the previously verified region
	for i, e := range h.secs {
		lo := int64(e.off)
		for _, v := range data[end:lo] {
			if v != 0 {
				return errors.New("nonzero section padding")
			}
		}
		end = lo + sectionElemBytes[i]*int64(e.count)
		sec := data[lo:end]
		if crc := crc32.ChecksumIEEE(sec); crc != e.crc {
			return fmt.Errorf("section %d checksum mismatch: file %08x, computed %08x", i, e.crc, crc)
		}
	}
	return nil
}

// Verify runs the deferred content validation of an opened index —
// section CRCs, inter-section padding, CSR shape — exactly once,
// returning the same result on every later call. It is a no-op for
// built indexes and returns the cached result for LoadFile, which has
// already run it. Safe for concurrent
// use; Search calls it implicitly, so the warm path below must stay
// free of allocation-inducing constructs (no closures — hotpathalloc
// walks through here).
func (ix *Index) Verify() error {
	if ix.verifyFn == nil {
		return nil
	}
	if ix.verifyDone.Load() {
		return ix.verifyErr
	}
	return ix.verifySlow()
}

// verifySlow is Verify's one-time cold path: classic double-checked
// locking, with the atomic Store publishing verifyErr to lock-free
// fast-path readers.
func (ix *Index) verifySlow() error {
	ix.verifyMu.Lock()
	defer ix.verifyMu.Unlock()
	if !ix.verifyDone.Load() {
		ix.verifyErr = ix.verifyFn()
		ix.verifyDone.Store(true)
	}
	return ix.verifyErr
}

// Mapped reports whether the index's arrays are zero-copy views of a
// memory-mapped store file.
func (ix *Index) Mapped() bool {
	return ix.mapping != nil && ix.mapping.Mapped()
}

// Close releases the file image backing an opened index (a mapping or
// LoadFile's heap copy); it is a no-op for built indexes. After Close
// the index must not be searched — its arrays alias the released image. Callers that share an index with
// concurrent searchers should drop their references instead and let the
// mapping's finalizer release it when the index becomes unreachable.
func (ix *Index) Close() error {
	m := ix.mapping
	if m == nil {
		return nil
	}
	// Latch verification closed so a later Verify (or Search) can never
	// touch the released mapping; if it already ran, this is a no-op.
	ix.verifyMu.Lock()
	if !ix.verifyDone.Load() {
		if ix.verifyFn != nil {
			ix.verifyErr = errors.New("slm: index closed before verification")
		}
		ix.verifyDone.Store(true)
	}
	ix.verifyMu.Unlock()
	ix.mapping = nil
	ix.rows, ix.offsets, ix.ids = nil, nil, nil
	ix.perm, ix.precs = nil, nil
	return m.Close()
}

package mmapio

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"unsafe"
)

func writeTemp(t *testing.T, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "blob")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestOpenReadsFileBytes(t *testing.T) {
	want := bytes.Repeat([]byte("mmapio"), 1000)
	m, err := Open(writeTemp(t, want))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if runtime.GOOS == "linux" && !m.Mapped() {
		t.Error("expected a real mapping on linux")
	}
	if m.Len() != len(want) || !bytes.Equal(m.Bytes(), want) {
		t.Errorf("mapped bytes differ from file contents (len %d vs %d)", m.Len(), len(want))
	}
	// Advice is best-effort but must never fail on a live mapping.
	for _, a := range []Advice{AdviceNormal, AdviceRandom, AdviceSequential, AdviceWillNeed} {
		if err := m.Advise(a); err != nil {
			t.Errorf("Advise(%d): %v", a, err)
		}
	}
}

func TestOpenEmptyFile(t *testing.T) {
	m, err := Open(writeTemp(t, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if m.Len() != 0 || m.Mapped() {
		t.Errorf("empty file: len=%d mapped=%v, want 0/false", m.Len(), m.Mapped())
	}
}

func TestOpenMissingAndIrregular(t *testing.T) {
	if _, err := Open(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Error("missing file must fail")
	}
	if _, err := Open(t.TempDir()); err == nil {
		t.Error("directory must fail")
	}
}

func TestCloseIdempotent(t *testing.T) {
	m, err := Open(writeTemp(t, []byte("x")))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	if m.Bytes() != nil {
		t.Error("Bytes must be nil after Close")
	}
	if m.Advise(AdviceRandom) != nil {
		t.Error("Advise after Close must be a no-op")
	}
}

func TestReadFileIsAlignedHeapCopy(t *testing.T) {
	want := bytes.Repeat([]byte("aligned"), 999)
	m, err := ReadFile(writeTemp(t, want))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if m.Mapped() {
		t.Error("ReadFile must not memory-map")
	}
	if !bytes.Equal(m.Bytes(), want) {
		t.Fatalf("heap bytes differ from file contents (len %d vs %d)", m.Len(), len(want))
	}
	if p := uintptr(unsafe.Pointer(&m.Bytes()[0])); p%8 != 0 {
		t.Errorf("heap buffer at %#x is not 8-byte aligned", p)
	}
	if m.Advise(AdviceSequential) != nil {
		t.Error("Advise on a heap copy must be a no-op")
	}
	if _, err := ReadFile(t.TempDir()); err == nil {
		t.Error("directory must fail")
	}
}

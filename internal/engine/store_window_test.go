package engine

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lbe/internal/core"
	"lbe/internal/mass"
	"lbe/internal/slm"
)

// TestWindowedSearchMatchesFullScan is the engine-level equivalence gate
// for the precursor-windowed kernel: across policies × shard counts ×
// tolerances (narrow absolute, ppm, wider than the mass range, and fully
// open) a session's PSMs must be byte-identical with windowing forced off.
func TestWindowedSearchMatchesFullScan(t *testing.T) {
	peptides, queries, _ := testDataset(t, 8, 2, 40)
	ctx := context.Background()
	for _, tol := range []mass.Tolerance{mass.Da(0.5), mass.Ppm(30), mass.Da(1e7), mass.Open()} {
		for _, policy := range []core.Policy{core.Chunk, core.RandomWithinGroups} {
			for _, shards := range []int{1, 3} {
				label := fmt.Sprintf("tol=%+v/%v/shards=%d", tol, policy, shards)
				cfg := SessionConfig{Config: lightConfig(), Shards: shards}
				cfg.Params.PrecursorTol = tol
				cfg.Policy = policy
				cfg.Seed = 11
				sess, err := NewSession(peptides, cfg)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				windowed, err := sess.Search(ctx, queries)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				sess.SetFullScan(true)
				full, err := sess.Search(ctx, queries)
				if err != nil {
					t.Fatalf("%s: full scan: %v", label, err)
				}
				requireIdenticalPSMs(t, label, full.PSMs, windowed.PSMs)
				if full.CandidatePSMs() != windowed.CandidatePSMs() {
					t.Fatalf("%s: scored %d windowed vs %d full", label,
						windowed.CandidatePSMs(), full.CandidatePSMs())
				}
				sess.Close()
			}
		}
	}
}

// rewriteShard replaces one shard file of a saved store with
// edit(its bytes) and re-anchors the manifest's size and CRC records, so
// the store-level checksums still agree and only the SLMX content is at
// fault.
func rewriteShard(t *testing.T, dir, name string, edit func([]byte) []byte) {
	t.Helper()
	path := filepath.Join(dir, name)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data = edit(data)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	editManifest(t, dir, func(m map[string]any) {
		for _, e := range m["shards"].([]any) {
			if rec := e.(map[string]any); rec["name"] == name {
				rec["size"] = len(data)
				rec["crc32"] = crc32.ChecksumIEEE(data)
			}
		}
	})
}

// patchVersion sets the SLMX version field of a valid image and re-fixes
// its header CRC, which is the first 4-byte field after the version
// holding the CRC of everything between the magic and itself.
func patchVersion(t *testing.T, data []byte, version uint32) []byte {
	t.Helper()
	le := binary.LittleEndian
	for crcOff := 8; crcOff+4 <= len(data); crcOff++ {
		if crc32.ChecksumIEEE(data[4:crcOff]) == le.Uint32(data[crcOff:]) {
			le.PutUint32(data[4:], version)
			le.PutUint32(data[crcOff:], crc32.ChecksumIEEE(data[4:crcOff]))
			return data
		}
	}
	t.Fatal("no header CRC found in the shard image")
	return nil
}

// TestStoreOpenPreV3Rejected: a store with a shard in a retired SLMX
// version is refused at open in both modes with an error naming the
// version and the rebuild command — old stores are rebuilt, never
// migrated.
func TestStoreOpenPreV3Rejected(t *testing.T) {
	for _, version := range []uint32{1, 2} {
		dir, _ := storeFixture(t, 2, true)
		rewriteShard(t, dir, "shard-0001.slmx", func(d []byte) []byte { return patchVersion(t, d, version) })
		for _, mapped := range []bool{false, true} {
			sess, _, err := OpenSessionOptions(dir, OpenOptions{MapStore: mapped})
			if err == nil {
				sess.Close()
				t.Fatalf("v%d shard, MapStore=%v: store opened", version, mapped)
			}
			var stale *slm.StaleVersionError
			if !errors.As(err, &stale) || stale.Version != version {
				t.Fatalf("v%d shard, MapStore=%v: want *slm.StaleVersionError, got %v", version, mapped, err)
			}
			if msg := err.Error(); !strings.Contains(msg, fmt.Sprintf("version %d", version)) ||
				!strings.Contains(msg, "lbe-index -out") || !strings.Contains(msg, "shard-0001.slmx") {
				t.Errorf("v%d shard, MapStore=%v: error %q must name the file, the version and the rebuild command",
					version, mapped, msg)
			}
		}
	}
}

// TestMappedVerifyChecksServedBytes: the deferred verification of a
// mapped open checks the bytes the session serves, not whatever file
// sits at the shard's path by the first query. A corrupted copy renamed
// over a shard file after the open leaves the mapping on the original
// inode, so the first Search must succeed and answer byte-identically
// to a heap open of the original store.
func TestMappedVerifyChecksServedBytes(t *testing.T) {
	peptides, queries, _ := testDataset(t, 6, 2, 25)
	cfg := SessionConfig{Config: lightConfig(), Shards: 3}
	live, err := NewSession(peptides, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "store")
	if err := live.Save(dir, peptides); err != nil {
		t.Fatal(err)
	}
	live.Close()
	ctx := context.Background()

	heap, _, err := OpenSessionOptions(dir, OpenOptions{MapStore: false})
	if err != nil {
		t.Fatal(err)
	}
	defer heap.Close()
	want, err := heap.Search(ctx, queries)
	if err != nil {
		t.Fatal(err)
	}

	mapped, _, err := OpenSessionOptions(dir, OpenOptions{MapStore: true})
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	path := filepath.Join(dir, "shard-0001.slmx")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	tmp := filepath.Join(dir, "corrupt.tmp")
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(tmp, path); err != nil {
		t.Fatal(err)
	}

	got, err := mapped.Search(ctx, queries)
	if err != nil {
		t.Fatalf("first mapped search after the file was replaced: %v", err)
	}
	requireIdenticalPSMs(t, "mapped open, file replaced after open", got.PSMs, want.PSMs)
}

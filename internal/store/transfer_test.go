package store

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// TestReadFramedRoundTrip proves the peer-transfer cycle preserves both
// version identity and answers: a frame read from one store and imported
// into another lands at the same version number and decodes into an
// estimator answering bit-identically.
func TestReadFramedRoundTrip(t *testing.T) {
	src, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	dst, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sum := buildTestSummary(t, 800, 1)
	// Two versions so the transferred one is not just "latest".
	if _, err := src.Save("demo/maxent", sum); err != nil {
		t.Fatal(err)
	}
	info2, err := src.Save("demo/maxent", sum)
	if err != nil {
		t.Fatal(err)
	}

	framed, info, err := src.ReadFramed("demo/maxent", info2.Version)
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != info2.Version || info.Checksum != info2.Checksum {
		t.Fatalf("ReadFramed info %+v, want version %d checksum %08x", info, info2.Version, info2.Checksum)
	}

	imported, err := dst.ImportFramed("demo/maxent", info.Version, framed)
	if err != nil {
		t.Fatal(err)
	}
	if imported.Version != info.Version {
		t.Fatalf("imported at v%d, want v%d (version identity must survive transfer)", imported.Version, info.Version)
	}
	est, loadInfo, err := dst.Load("demo/maxent", info.Version)
	if err != nil {
		t.Fatal(err)
	}
	if loadInfo.Checksum != info.Checksum {
		t.Fatalf("checksum %08x after import, want %08x", loadInfo.Checksum, info.Checksum)
	}
	want, _ := sum.EstimateCount(nil)
	got, _ := est.EstimateCount(nil)
	if math.Float64bits(want) != math.Float64bits(got) {
		t.Fatalf("imported estimator answers %v, origin answers %v", got, want)
	}
}

// TestReadFramedLatestAndMissing covers the version<=0 (latest) selector
// and the not-found paths.
func TestReadFramedLatestAndMissing(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.ReadFramed("demo/maxent", 0); !errors.Is(err, ErrNotFound) {
		t.Fatalf("ReadFramed on an empty store: %v, want ErrNotFound", err)
	}
	sum := buildTestSummary(t, 800, 2)
	if _, err := st.Save("demo/maxent", sum); err != nil {
		t.Fatal(err)
	}
	info2, err := st.Save("demo/maxent", sum)
	if err != nil {
		t.Fatal(err)
	}
	_, latest, err := st.ReadFramed("demo/maxent", 0)
	if err != nil {
		t.Fatal(err)
	}
	if latest.Version != info2.Version {
		t.Fatalf("latest ReadFramed picked v%d, want v%d", latest.Version, info2.Version)
	}
	if _, _, err := st.ReadFramed("demo/maxent", 99); !errors.Is(err, ErrNotFound) {
		t.Fatalf("ReadFramed v99: %v, want ErrNotFound", err)
	}
}

// TestImportFramedRejectsDamage proves a tampered or truncated frame never
// reaches disk.
func TestImportFramedRejectsDamage(t *testing.T) {
	src, _ := Open(t.TempDir())
	dst, _ := Open(t.TempDir())
	sum := buildTestSummary(t, 800, 3)
	info, err := src.Save("demo/maxent", sum)
	if err != nil {
		t.Fatal(err)
	}
	framed, _, err := src.ReadFramed("demo/maxent", info.Version)
	if err != nil {
		t.Fatal(err)
	}

	flipped := append([]byte(nil), framed...)
	flipped[len(flipped)-1] ^= 0xFF
	if _, err := dst.ImportFramed("demo/maxent", 1, flipped); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("import of a bit-flipped frame: %v, want ErrCorrupt", err)
	}
	if _, err := dst.ImportFramed("demo/maxent", 1, framed[:len(framed)/2]); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("import of a truncated frame: %v, want ErrCorrupt", err)
	}
	if _, err := dst.ImportFramed("demo/maxent", 0, framed); err == nil {
		t.Fatal("import accepted version 0")
	}
	if _, err := dst.ImportFramed("../escape", 1, framed); err == nil {
		t.Fatal("import accepted a traversal key")
	}
	if _, _, err := dst.Load("demo/maxent", 1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("damaged imports left state behind: %v", err)
	}
}

// TestImportFramedIdempotentAndConflicting re-imports the same version
// twice (no-op) and then a different frame at the same version (loud
// failure — split-brain must never be silent).
func TestImportFramedIdempotentAndConflicting(t *testing.T) {
	src, _ := Open(t.TempDir())
	dst, _ := Open(t.TempDir())
	sumA := buildTestSummary(t, 800, 4)
	sumB := buildTestSummary(t, 800, 5)
	infoA, err := src.Save("demo/maxent", sumA)
	if err != nil {
		t.Fatal(err)
	}
	infoB, err := src.Save("demo/maxent", sumB)
	if err != nil {
		t.Fatal(err)
	}
	frameA, _, err := src.ReadFramed("demo/maxent", infoA.Version)
	if err != nil {
		t.Fatal(err)
	}
	frameB, _, err := src.ReadFramed("demo/maxent", infoB.Version)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := dst.ImportFramed("demo/maxent", 1, frameA); err != nil {
		t.Fatal(err)
	}
	if _, err := dst.ImportFramed("demo/maxent", 1, frameA); err != nil {
		t.Fatalf("re-import of identical bytes must be a no-op, got %v", err)
	}
	if _, err := dst.ImportFramed("demo/maxent", 1, frameB); err == nil {
		t.Fatal("import silently replaced v1 with different content")
	}
	man, err := dst.Versions("demo/maxent")
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Snapshots) != 1 || man.Snapshots[0].Version != 1 {
		t.Fatalf("manifest %+v after conflicting imports, want exactly v1", man.Snapshots)
	}
}

// TestImportThenLocalSaveVersioning proves imported versions and local
// saves share one version sequence: a save after importing v3 claims v4,
// never a duplicate.
func TestImportThenLocalSaveVersioning(t *testing.T) {
	src, _ := Open(t.TempDir())
	dst, _ := Open(t.TempDir())
	sum := buildTestSummary(t, 800, 6)
	for i := 0; i < 3; i++ {
		if _, err := src.Save("demo/maxent", sum); err != nil {
			t.Fatal(err)
		}
	}
	frame, info, err := src.ReadFramed("demo/maxent", 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dst.ImportFramed("demo/maxent", info.Version, frame); err != nil {
		t.Fatal(err)
	}
	saved, err := dst.Save("demo/maxent", sum)
	if err != nil {
		t.Fatal(err)
	}
	if saved.Version != 4 {
		t.Fatalf("local save after importing v3 claimed v%d, want v4", saved.Version)
	}
}

// TestImportFramedHealsDamagedFile: a local file that no longer verifies is
// not a version, so importing the origin's frame at its number replaces it —
// where two sound frames that differ stay the loud conflict above.
func TestImportFramedHealsDamagedFile(t *testing.T) {
	const key = "demo/maxent"
	framed := testFrame(t)
	dst, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	want, err := dst.ImportFramed(key, 1, framed)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dst.Dir(), key, snapshotFile(1))
	rotten := append([]byte(nil), framed...)
	rotten[headerSize+11] ^= 0x40
	writeFile(t, path, rotten)

	got, err := dst.ImportFramed(key, 1, framed)
	if err != nil {
		t.Fatalf("import over a damaged file: %v", err)
	}
	if got.Version != 1 || got.Checksum != want.Checksum {
		t.Fatalf("healed as %+v, want v1 with checksum %08x", got, want.Checksum)
	}
	if onDisk, err := os.ReadFile(path); err != nil || !bytes.Equal(onDisk, framed) {
		t.Fatalf("file after heal differs from the origin's frame (err=%v)", err)
	}
	if _, _, err := dst.Load(key, 1); err != nil {
		t.Fatalf("healed version does not load: %v", err)
	}
	if man, err := dst.Versions(key); err != nil || len(man.Snapshots) != 1 {
		t.Fatalf("Versions after heal = %+v, %v", man, err)
	}
}

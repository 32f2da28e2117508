package store

import (
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/solver"
	"repro/internal/summary"
)

// buildTestSummary builds a small solved summary over a correlated
// relation.
func buildTestSummary(t testing.TB, rows int, seed int64) *summary.Summary {
	t.Helper()
	sch := schema.MustNew(
		schema.MustCategorical("region", []string{"NA", "EU", "APAC", "LATAM"}),
		schema.MustCategorical("product", []string{"a", "b", "c", "d", "e", "f"}),
		schema.MustBinned("amount", 0, 100, 8),
	)
	rng := rand.New(rand.NewSource(seed))
	rel := relation.NewWithCapacity(sch, rows)
	for i := 0; i < rows; i++ {
		region := rng.Intn(4)
		product := (region + rng.Intn(2)) % 6
		bin, err := sch.Attr(2).Bin(rng.Float64() * 100)
		if err != nil {
			t.Fatal(err)
		}
		rel.MustAppend([]int{region, product, bin})
	}
	sum, err := summary.Build(rel, summary.Options{Solver: solver.Options{MaxSweeps: 30}})
	if err != nil {
		t.Fatal(err)
	}
	return sum
}

func TestOpenCreatesAndProbes(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "nested", "snapshots")
	st, err := Open(dir)
	if err != nil {
		t.Fatalf("Open on a missing directory: %v", err)
	}
	if st.Dir() != dir {
		t.Errorf("Dir() = %q, want %q", st.Dir(), dir)
	}
	if _, err := os.Stat(dir); err != nil {
		t.Errorf("directory was not created: %v", err)
	}

	if _, err := Open(""); err == nil {
		t.Error("Open(\"\") succeeded")
	}
	// A read-only root must fail the writability probe up front.
	ro := filepath.Join(t.TempDir(), "ro")
	if err := os.Mkdir(ro, 0o555); err != nil {
		t.Fatal(err)
	}
	if os.Geteuid() != 0 { // root ignores permission bits
		if _, err := Open(ro); err == nil {
			t.Error("Open on a read-only directory succeeded")
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sum := buildTestSummary(t, 2000, 1)

	info, err := st.Save("demo/maxent", sum)
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != 1 || info.Dataset != "demo/maxent" || info.Estimator != sum.Name() {
		t.Fatalf("unexpected info %+v", info)
	}

	est, got, err := st.Load("demo/maxent", 0)
	if err != nil {
		t.Fatal(err)
	}
	if got != info {
		t.Errorf("Load info %+v != Save info %+v", got, info)
	}
	pred := query.NewPredicate(3).WhereEq(0, 2).WhereRange(2, 1, 5)
	want, _ := sum.EstimateCount(pred)
	have, err := est.EstimateCount(pred)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(want) != math.Float64bits(have) {
		t.Errorf("loaded estimate %v, want bit-identical %v", have, want)
	}
}

func TestVersionsAreMonotonic(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sum := buildTestSummary(t, 1000, 2)
	for want := 1; want <= 3; want++ {
		info, err := st.Save("demo/maxent", sum)
		if err != nil {
			t.Fatal(err)
		}
		if info.Version != want {
			t.Fatalf("save %d allocated version %d", want, info.Version)
		}
	}
	man, err := st.Versions("demo/maxent")
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Snapshots) != 3 {
		t.Fatalf("manifest lists %d snapshots, want 3", len(man.Snapshots))
	}
	// Loading an explicit older version works; a missing one is ErrNotFound.
	if _, info, err := st.Load("demo/maxent", 2); err != nil || info.Version != 2 {
		t.Errorf("Load v2: info %+v, err %v", info, err)
	}
	if _, _, err := st.Load("demo/maxent", 9); !errors.Is(err, ErrNotFound) {
		t.Errorf("Load v9 error = %v, want ErrNotFound", err)
	}
	if _, _, err := st.Load("nosuch", 0); !errors.Is(err, ErrNotFound) {
		t.Errorf("Load of unknown dataset error = %v, want ErrNotFound", err)
	}
}

func TestListAndPrune(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sum := buildTestSummary(t, 1000, 3)
	for i := 0; i < 4; i++ {
		if _, err := st.Save("a/maxent", sum); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := st.Save("b/maxent", sum); err != nil {
		t.Fatal(err)
	}

	mans, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(mans) != 2 || mans[0].Dataset != "a/maxent" || mans[1].Dataset != "b/maxent" {
		t.Fatalf("List: %+v", mans)
	}

	removed, err := st.Prune("a/maxent", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 2 || removed[0].Version != 1 || removed[1].Version != 2 {
		t.Fatalf("Prune removed %+v", removed)
	}
	man, err := st.Versions("a/maxent")
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Snapshots) != 2 || man.Snapshots[0].Version != 3 {
		t.Fatalf("after prune: %+v", man.Snapshots)
	}
	// The pruned files are gone; the survivors still load.
	if _, _, err := st.Load("a/maxent", 1); !errors.Is(err, ErrNotFound) {
		t.Errorf("pruned version still loads (err=%v)", err)
	}
	if _, _, err := st.Load("a/maxent", 4); err != nil {
		t.Errorf("surviving version fails to load: %v", err)
	}
	// Versions keep climbing after a prune; they are never reused.
	info, err := st.Save("a/maxent", sum)
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != 5 {
		t.Errorf("post-prune save allocated version %d, want 5", info.Version)
	}
	if _, err := st.Prune("a/maxent", 0); err == nil {
		t.Error("Prune(keep=0) succeeded; it must refuse to empty a dataset")
	}
}

func TestRejectsCorruptedSnapshots(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sum := buildTestSummary(t, 1000, 4)
	info, err := st.Save("demo/maxent", sum)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(st.Dir(), "demo", "maxent", snapshotFile(info.Version))
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	restore := func() {
		if err := os.WriteFile(path, pristine, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	cases := []struct {
		name   string
		mangle func([]byte) []byte
	}{
		{"truncated header", func(b []byte) []byte { return b[:headerSize-3] }},
		{"truncated payload", func(b []byte) []byte { return b[:len(b)-7] }},
		{"empty file", func(b []byte) []byte { return nil }},
		{"bad magic", func(b []byte) []byte { b[0] ^= 0xff; return b }},
		{"future format version", func(b []byte) []byte { b[8] = 99; return b }},
		{"flipped payload bit", func(b []byte) []byte { b[headerSize+11] ^= 0x40; return b }},
		{"flipped checksum", func(b []byte) []byte { b[20] ^= 0x01; return b }},
		{"trailing garbage", func(b []byte) []byte { return append(b, 0xde, 0xad) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer restore()
			mangled := tc.mangle(append([]byte(nil), pristine...))
			if err := os.WriteFile(path, mangled, 0o644); err != nil {
				t.Fatal(err)
			}
			_, _, err := st.Load("demo/maxent", info.Version)
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Load of %s: err = %v, want ErrCorrupt", tc.name, err)
			}
		})
	}
	// And the pristine file still loads after all that mangling.
	restore()
	if _, _, err := st.Load("demo/maxent", info.Version); err != nil {
		t.Fatalf("pristine snapshot fails to load: %v", err)
	}
}

// TestLoadReadsUnlistedVersion dates from when a manifest re-described the
// files and a racing rewrite could drop an entry; no version is "listed" any
// more, so every file is what that test called unlisted. A snapshot file on
// disk must load, by explicit version and as the latest, described from its
// verified frame — while a pruned version stays ErrNotFound and a file that
// fails verification is ErrCorrupt.
func TestLoadReadsUnlistedVersion(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sum := buildTestSummary(t, 1000, 5)
	const key = "demo/maxent"
	var saved []SnapshotInfo
	for i := 0; i < 3; i++ {
		info, err := st.Save(key, sum)
		if err != nil {
			t.Fatal(err)
		}
		saved = append(saved, info)
	}
	for _, version := range []int{3, 0} {
		est, info, err := st.Load(key, version)
		if err != nil {
			t.Fatalf("Load(%d) of an on-disk version: %v", version, err)
		}
		if info.Version != 3 || info.Checksum != saved[2].Checksum || info.Bytes != saved[2].Bytes || info.Estimator != sum.Name() {
			t.Fatalf("Load(%d) described the snapshot as %+v, saved as %+v", version, info, saved[2])
		}
		if est.Name() != sum.Name() {
			t.Fatalf("Load(%d) restored %q, want %q", version, est.Name(), sum.Name())
		}
	}
	if framed, info, err := st.ReadFramed(key, 3); err != nil || info.Version != 3 || len(framed) == 0 {
		t.Fatalf("ReadFramed of the version: %d bytes, %+v, %v", len(framed), info, err)
	}

	// A pruned version is gone.
	if _, err := st.Save(key, sum); err != nil { // adds v4
		t.Fatal(err)
	}
	if _, err := st.Prune(key, 2); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Load(key, 1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Load of a pruned version: err = %v, want ErrNotFound", err)
	}
	if _, _, err := st.Load(key, 9); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Load of a version never saved: err = %v, want ErrNotFound", err)
	}

	// A file that does not verify is corrupt, not missing — and
	// being the highest version on disk, it is what "latest" names.
	pristine, err := os.ReadFile(filepath.Join(st.Dir(), "demo", "maxent", snapshotFile(4)))
	if err != nil {
		t.Fatal(err)
	}
	pristine[headerSize+11] ^= 0x40
	if err := os.WriteFile(filepath.Join(st.Dir(), "demo", "maxent", snapshotFile(5)), pristine, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, version := range []int{5, 0} {
		if _, _, err := st.Load(key, version); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("Load(%d) of a corrupt file: err = %v, want ErrCorrupt", version, err)
		}
	}
	if _, _, err := st.Load(key, 4); err != nil {
		t.Fatalf("the sound version next to it fails to load: %v", err)
	}
}

func TestRejectsBadKeys(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sum := buildTestSummary(t, 500, 5)
	for _, key := range []string{"", "..", "a/../b", ".hidden", "a//b", "demo/", "/demo", "sp ace"} {
		if _, err := st.Save(key, sum); err == nil {
			t.Errorf("Save(%q) succeeded", key)
		}
		if _, _, err := st.Load(key, 0); err == nil {
			t.Errorf("Load(%q) succeeded", key)
		}
	}
}

// TestConcurrentSaveLoad hammers one store with parallel savers and
// loaders (run under -race in CI): versions must come out unique and
// every load must observe a complete, checksum-valid snapshot.
func TestConcurrentSaveLoad(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sum := buildTestSummary(t, 1000, 6)
	if _, err := st.Save("demo/maxent", sum); err != nil {
		t.Fatal(err)
	}

	const savers, loaders, iters = 4, 4, 8
	var wg sync.WaitGroup
	versions := make(chan int, savers*iters)
	errc := make(chan error, (savers+loaders)*iters)
	for w := 0; w < savers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				info, err := st.Save("demo/maxent", sum)
				if err != nil {
					errc <- err
					return
				}
				versions <- info.Version
			}
		}()
	}
	for w := 0; w < loaders; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if _, _, err := st.Load("demo/maxent", 0); err != nil {
					errc <- err
					return
				}
				if _, err := st.List(); err != nil {
					errc <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(versions)
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	seen := make(map[int]bool)
	for v := range versions {
		if seen[v] {
			t.Fatalf("version %d allocated twice", v)
		}
		seen[v] = true
	}
	man, err := st.Versions("demo/maxent")
	if err != nil {
		t.Fatal(err)
	}
	if want := savers*iters + 1; len(man.Snapshots) != want {
		t.Fatalf("manifest lists %d snapshots, want %d", len(man.Snapshots), want)
	}
}

// TestCrossProcessSaves simulates the documented multi-process workflow
// (cmd/summarize batch-writing the directory a live summaryd saves into)
// with independent Store handles on one directory, whose internal mutexes
// cannot protect each other: every save must land as its own intact file
// under a unique version (the link(2) claim), and the manifest must
// converge to the full version set via merge-and-heal.
func TestCrossProcessSaves(t *testing.T) {
	dir := t.TempDir()
	sum := buildTestSummary(t, 1000, 7)

	const writers, iters = 3, 5
	stores := make([]*Store, writers)
	for i := range stores {
		st, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		stores[i] = st
	}
	var wg sync.WaitGroup
	infos := make(chan SnapshotInfo, writers*iters)
	errc := make(chan error, writers*iters)
	for _, st := range stores {
		wg.Add(1)
		go func(st *Store) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				info, err := st.Save("demo/maxent", sum)
				if err != nil {
					errc <- err
					return
				}
				infos <- info
			}
		}(st)
	}
	wg.Wait()
	close(infos)
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	seen := make(map[int]bool)
	for info := range infos {
		if seen[info.Version] {
			t.Fatalf("version %d claimed twice across stores", info.Version)
		}
		seen[info.Version] = true
	}
	if len(seen) != writers*iters {
		t.Fatalf("%d unique versions, want %d", len(seen), writers*iters)
	}
	// Every claimed version is an intact, loadable file.
	for v := range seen {
		if _, _, err := stores[0].Load("demo/maxent", v); err != nil {
			t.Fatalf("version %d does not load: %v", v, err)
		}
	}
	// One more save heals any manifest entry a racing rewrite dropped:
	// afterwards the manifest lists every version on disk.
	if _, err := stores[0].Save("demo/maxent", sum); err != nil {
		t.Fatal(err)
	}
	man, err := stores[0].Versions("demo/maxent")
	if err != nil {
		t.Fatal(err)
	}
	if want := writers*iters + 1; len(man.Snapshots) != want {
		t.Fatalf("healed manifest lists %d snapshots, want %d", len(man.Snapshots), want)
	}
	for i, sn := range man.Snapshots {
		if sn.Version != i+1 {
			t.Fatalf("manifest versions not contiguous: %+v", man.Snapshots)
		}
		if sn.Estimator != sum.Name() {
			t.Fatalf("healed entry v%d lost the estimator name: %+v", sn.Version, sn)
		}
	}
}

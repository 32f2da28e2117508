package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// testFrame returns one sound snapshot frame, made by a scratch store.
func testFrame(t *testing.T) []byte {
	t.Helper()
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Save("scratch/maxent", buildTestSummary(t, 500, 1)); err != nil {
		t.Fatal(err)
	}
	framed, _, err := st.ReadFramed("scratch/maxent", 1)
	if err != nil {
		t.Fatal(err)
	}
	return framed
}

func writeFile(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func listedVersions(man Manifest) []int {
	out := []int{}
	for _, sn := range man.Snapshots {
		out = append(out, sn.Version)
	}
	return out
}

// oldManifestName is the record older builds kept beside the snapshot files.
// This build never reads, writes or deletes it.
const oldManifestName = "MANIFEST.json"

// oldManifest is the MANIFEST.json an older build kept beside the snapshot
// files: a branch's parent plus a "snapshots" array re-describing them.
func oldManifest(dataset, parent string, versions ...string) []byte {
	return []byte(`{"dataset": "` + dataset + `",` + parent + `"snapshots": [` + strings.Join(versions, ",") + `]}`)
}

func oldEntry(dataset, version string) string {
	return `{"dataset":"` + dataset + `","version":` + version + `,"estimator":"stale","bytes":1,"checksum":1,"created_at":"2020-01-01T00:00:00Z"}`
}

// TestReopenAfterCrash fabricates the directory states a kill -9 can leave
// behind and checks that a fresh handle reads each of them the one way the
// files allow: the linked, verifying files are the versions — whatever else
// lies beside them.
func TestReopenAfterCrash(t *testing.T) {
	const key = "demo/maxent"
	framed := testFrame(t)
	cases := []struct {
		name      string
		fabricate func(dir string)
		sound     []int // what List and Versions must show
		highest   int   // the highest linked file, sound or not
	}{
		{
			name: "linked file, manifest write never happened",
			fabricate: func(dir string) {
				writeFile(t, filepath.Join(dir, snapshotFile(1)), framed)
			},
			sound: []int{1}, highest: 1,
		},
		{
			name: "temp stragglers beside sound versions",
			fabricate: func(dir string) {
				writeFile(t, filepath.Join(dir, snapshotFile(1)), framed)
				writeFile(t, filepath.Join(dir, snapshotFile(2)), framed)
				writeFile(t, filepath.Join(dir, ".snap.tmp-123456"), framed[:len(framed)/2])
				writeFile(t, filepath.Join(dir, oldManifestName+".tmp-654321"), []byte(`{"dataset": "demo/ma`))
			},
			sound: []int{1, 2}, highest: 2,
		},
		{
			name: "older build's manifest lists a missing file and omits a linked one",
			fabricate: func(dir string) {
				writeFile(t, filepath.Join(dir, snapshotFile(1)), framed)
				writeFile(t, filepath.Join(dir, snapshotFile(2)), framed)
				writeFile(t, filepath.Join(dir, oldManifestName), oldManifest(key, "", oldEntry(key, "1"), oldEntry(key, "3")))
			},
			sound: []int{1, 2}, highest: 2,
		},
		{
			name: "truncated newest file",
			fabricate: func(dir string) {
				writeFile(t, filepath.Join(dir, snapshotFile(1)), framed)
				writeFile(t, filepath.Join(dir, snapshotFile(2)), framed)
				writeFile(t, filepath.Join(dir, snapshotFile(3)), framed[:len(framed)-9])
			},
			sound: []int{1, 2}, highest: 3,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			root := t.TempDir()
			dir := filepath.Join(root, "demo", "maxent")
			tc.fabricate(dir)
			st, err := Open(root)
			if err != nil {
				t.Fatal(err)
			}

			mans, err := st.List()
			if err != nil || len(mans) != 1 || mans[0].Dataset != key || !reflect.DeepEqual(listedVersions(mans[0]), tc.sound) {
				t.Fatalf("List = %+v, %v; want %s at versions %v", mans, err, key, tc.sound)
			}
			man, err := st.Versions(key)
			if err != nil || !reflect.DeepEqual(listedVersions(man), tc.sound) {
				t.Fatalf("Versions = %+v, %v; want versions %v", man, err, tc.sound)
			}
			for _, sn := range man.Snapshots {
				if sn.Estimator == "stale" || sn.Bytes != int64(len(framed)-headerSize) || sn.CreatedAt.IsZero() {
					t.Errorf("v%d described as %+v, not read off its file", sn.Version, sn)
				}
			}

			// "Latest" names the highest linked file: a damaged one is
			// corrupt, never missing and never silently the one before.
			newestSound := tc.sound[len(tc.sound)-1]
			_, info, err := st.Load(key, 0)
			if newestSound == tc.highest {
				if err != nil || info.Version != tc.highest {
					t.Fatalf("Load(latest) = v%d, %v; want v%d", info.Version, err, tc.highest)
				}
			} else if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Load(latest) with a damaged newest file: %v, want ErrCorrupt", err)
			}

			saved, err := st.Save(key, buildTestSummary(t, 500, 1))
			if err != nil || saved.Version != tc.highest+1 {
				t.Fatalf("Save claimed v%d, %v; want v%d", saved.Version, err, tc.highest+1)
			}

			// Prune counts files, not a record of them: what stays is the
			// newest keep versions and a damaged file, which is not Prune's to
			// delete.
			if _, err := st.Prune(key, 1); err != nil {
				t.Fatal(err)
			}
			want := []string{snapshotFile(saved.Version)}
			if newestSound != tc.highest {
				want = []string{snapshotFile(tc.highest), snapshotFile(saved.Version)}
			}
			var left []string
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				if _, ok := snapshotVersion(e.Name()); ok {
					left = append(left, e.Name())
				}
			}
			if !reflect.DeepEqual(left, want) {
				t.Fatalf("after Prune(keep=1) the directory holds %v, want %v", left, want)
			}
			if man, err := st.Versions(key); err != nil || !reflect.DeepEqual(listedVersions(man), []int{saved.Version}) {
				t.Fatalf("after Prune(keep=1): Versions = %+v, %v", man, err)
			}
		})
	}
}

// TestOpensOlderBuildDirectory builds the directory an older build left —
// every key with a MANIFEST.json that re-describes its files, a branch's
// also carrying its parent — and checks that both keys open, list, load and
// prune as plain keys, and that this build never touches either record.
func TestOpensOlderBuildDirectory(t *testing.T) {
	const base, fork = "base/maxent", "fork/maxent"
	framed := testFrame(t)
	root := t.TempDir()
	for _, v := range []int{1, 2, 3} {
		writeFile(t, filepath.Join(root, base, snapshotFile(v)), framed)
	}
	records := map[string][]byte{
		base: oldManifest(base, "", oldEntry(base, "1"), oldEntry(base, "2"), oldEntry(base, "3")),
		fork: oldManifest(fork, `"parent": {"dataset": "base/maxent", "version": 2},`, oldEntry(fork, "1")),
	}
	for key, rec := range records {
		writeFile(t, filepath.Join(root, key, oldManifestName), rec)
	}
	writeFile(t, filepath.Join(root, fork, snapshotFile(1)), framed)

	st, err := Open(root)
	if err != nil {
		t.Fatal(err)
	}
	mans, err := st.List()
	if err != nil || len(mans) != 2 || mans[0].Dataset != base || mans[1].Dataset != fork {
		t.Fatalf("List = %+v, %v", mans, err)
	}
	if got := listedVersions(mans[0]); !reflect.DeepEqual(got, []int{1, 2, 3}) {
		t.Fatalf("base listed as %+v", mans[0])
	}
	if got := listedVersions(mans[1]); !reflect.DeepEqual(got, []int{1}) {
		t.Fatalf("fork listed as %+v", mans[1])
	}
	if data, err := json.Marshal(mans); err != nil || strings.Contains(string(data), "parent") {
		t.Fatalf("the listing carries a parent: %s, %v", data, err)
	}
	if sn := mans[0].Snapshots[0]; sn.Estimator == "stale" || sn.Checksum == 1 {
		t.Fatalf("v1 described from the old manifest, not its file: %+v", sn)
	}
	if _, info, err := st.Load(fork, 0); err != nil || info.Version != 1 {
		t.Fatalf("Load(fork) = %+v, %v", info, err)
	}

	// The parent the fork's record names is no fork point: base prunes to
	// its newest version.
	removed, err := st.Prune(base, 1)
	if err != nil || !reflect.DeepEqual(listedVersions(Manifest{Snapshots: removed}), []int{1, 2}) {
		t.Fatalf("Prune(base, 1) removed %+v, %v; want v1 and v2", removed, err)
	}
	if man, err := st.Versions(base); err != nil || !reflect.DeepEqual(listedVersions(man), []int{3}) {
		t.Fatalf("base after Prune(keep=1): %+v, %v", man, err)
	}

	// A save and a prune of each key leave both records byte for byte.
	for key := range records {
		if _, err := st.Save(key, buildTestSummary(t, 500, 1)); err != nil {
			t.Fatal(err)
		}
		if _, err := st.Prune(key, 1); err != nil {
			t.Fatal(err)
		}
	}
	for key, rec := range records {
		data, err := os.ReadFile(filepath.Join(root, key, oldManifestName))
		if err != nil || !bytes.Equal(data, rec) {
			t.Fatalf("%s's MANIFEST.json changed: %v\n%s", key, err, data)
		}
	}
}

// TestListingRemembersDescriptions: a linked file is immutable, so a listing
// reads each file once per handle; what tells the handle to look again is a
// read of the file that fails.
func TestListingRemembersDescriptions(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const key = "demo/maxent"
	sum := buildTestSummary(t, 500, 1)
	for i := 0; i < 2; i++ {
		if _, err := st.Save(key, sum); err != nil {
			t.Fatal(err)
		}
	}
	if man, err := st.Versions(key); err != nil || len(man.Snapshots) != 2 {
		t.Fatalf("Versions = %+v, %v", man, err)
	}

	path := filepath.Join(st.Dir(), key, snapshotFile(1))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[headerSize+11] ^= 0x40
	writeFile(t, path, data)

	// Bit rot under a described file goes unseen by listings …
	if man, err := st.Versions(key); err != nil || len(man.Snapshots) != 2 {
		t.Fatalf("second listing read the payload again: %+v, %v", man, err)
	}
	// … until something reads the file, which always verifies.
	if _, _, err := st.Load(key, 1); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Load of the damaged file: %v, want ErrCorrupt", err)
	}
	man, err := st.Versions(key)
	if err != nil || !reflect.DeepEqual(listedVersions(man), []int{2}) {
		t.Fatalf("listing after the failed Load = %+v, %v; want v2 alone", man, err)
	}
}

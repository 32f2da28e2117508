// Package store persists solved summaries as immutable, versioned
// snapshots on disk, following the bolt-on versioning approach of
// OrpheusDB: the expensive artifact — a converged MaxEnt model — is built
// once (by cmd/summarize or a serving build) and then restored on every
// cold start in time proportional to the summary size, never the relation
// size.
//
// Layout: one directory per dataset key (keys are slash-separated name
// segments, conventionally "<dataset>/<strategy>"), holding monotonically
// versioned snapshot files v000001.snap, v000002.snap, … plus a
// MANIFEST.json describing them. Every file is written to a temporary
// name and atomically renamed into place, so readers never observe a
// partial snapshot and a crashed writer leaves at most a *.tmp straggler.
//
// On-disk snapshot framing (internal/frame): an 8-byte magic, a format
// version, the payload length, and a CRC32-C checksum, followed by the
// payload produced by summary.EncodeEstimator. Load verifies all four before
// decoding, so truncated or corrupted files are rejected with descriptive
// errors instead of being decoded into a silently-wrong model.
package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/frame"
	"repro/internal/summary"
)

const (
	// magic identifies a snapshot file; the trailing byte doubles as a
	// framing-format version bump space ("1" today).
	magic = "EDBSNAP1"
	// formatVersion is the payload format version; bump it when the
	// summary codec changes incompatibly.
	formatVersion = 1
	// headerSize is the frame header in front of every payload.
	headerSize = frame.HeaderSize
	// manifestName is the per-dataset manifest file.
	manifestName = "MANIFEST.json"
	// maxPayload bounds how large a payload Load will read (1 GiB), so a
	// corrupted length field cannot drive an absurd allocation.
	maxPayload = 1 << 30
)

// ErrCorrupt tags every integrity failure Load can report (bad magic,
// version mismatch, length mismatch, checksum mismatch, undecodable
// payload), so callers can distinguish damage from absence.
var ErrCorrupt = errors.New("snapshot corrupt")

// ErrNotFound is returned when a dataset or version does not exist.
var ErrNotFound = errors.New("snapshot not found")

// keySegment validates one path segment of a dataset key.
var keySegment = regexp.MustCompile(`^[a-zA-Z0-9][a-zA-Z0-9._-]*$`)

// SnapshotInfo describes one stored snapshot; it is both the manifest
// entry and the wire shape of the summaryd snapshot endpoints.
type SnapshotInfo struct {
	// Dataset is the key the snapshot is stored under, conventionally
	// "<dataset>/<strategy>".
	Dataset string `json:"dataset"`
	// Version is the monotonically increasing snapshot version, starting
	// at 1.
	Version int `json:"version"`
	// Estimator is the Name() of the stored estimator.
	Estimator string `json:"estimator"`
	// Bytes is the payload size (framing excluded).
	Bytes int64 `json:"bytes"`
	// Checksum is the CRC32-C of the payload.
	Checksum uint32 `json:"checksum"`
	// CreatedAt is the save wall-clock time (UTC).
	CreatedAt time.Time `json:"created_at"`
}

// Lineage names the snapshot a branched dataset was forked from: the
// parent dataset key and the parent version that is the branch's fork
// point. It is recorded in the branch's manifest so tooling can walk the
// version DAG, and so Prune on the parent treats the fork point as
// implicitly pinned (a branch whose origin snapshot is gone can no longer
// be diffed against, or re-forked from, where it diverged).
type Lineage struct {
	Dataset string `json:"dataset"`
	Version int    `json:"version"`
}

// Manifest lists the live snapshots of one dataset key, ascending by
// version. Parent, when set, records the branch lineage (see Lineage).
type Manifest struct {
	Dataset   string         `json:"dataset"`
	Parent    *Lineage       `json:"parent,omitempty"`
	Snapshots []SnapshotInfo `json:"snapshots"`
}

// Latest returns the newest snapshot of the manifest.
func (m Manifest) Latest() (SnapshotInfo, bool) {
	if len(m.Snapshots) == 0 {
		return SnapshotInfo{}, false
	}
	return m.Snapshots[len(m.Snapshots)-1], true
}

// Store is a directory-backed snapshot store. Saves within one process
// are serialized by an internal mutex; loads are lock-free and may run
// concurrently with saves, because completed snapshot files are immutable
// and both snapshots and manifests become visible only through atomic
// renames.
//
// Across processes (a batch cmd/summarize writing the directory a live
// summaryd serves from), safety rests on the filesystem: a version is
// claimed by link(2)ing the finished temp file to its final name, which
// fails on an existing target — so a snapshot file, once saved, can never
// be clobbered and version numbers are never handed out twice. Manifest
// rewrites merge the on-disk manifest and the directory listing first, so
// an entry a concurrent writer published is folded in rather than
// dropped; an interleaving that still loses a manifest entry leaves the
// snapshot file intact and the entry is healed back in by the next save
// or prune.
type Store struct {
	dir string
	mu  sync.Mutex
	now func() time.Time // injectable for tests
	// pins refcounts the snapshot versions currently referenced by live
	// serving code (dataset key → version → refcount); Prune never removes
	// a pinned version.
	pins map[string]map[int]int
}

// Open validates dir as a snapshot store root: it creates the directory
// if missing and probes writability up front (create-and-remove of a
// temporary file), so a misconfigured path fails at startup rather than
// at the first save hours later.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, errors.New("store: directory must not be empty")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: create %s: %w", dir, err)
	}
	probe, err := os.CreateTemp(dir, ".probe-*")
	if err != nil {
		return nil, fmt.Errorf("store: directory %s is not writable: %w", dir, err)
	}
	name := probe.Name()
	probe.Close()
	if err := os.Remove(name); err != nil {
		return nil, fmt.Errorf("store: cleaning writability probe: %w", err)
	}
	return &Store{dir: dir, now: time.Now, pins: make(map[string]map[int]int)}, nil
}

// Pin marks one snapshot version as referenced by a live serving process
// (a registry entry answering queries from it): Prune will never remove a
// pinned version, no matter how old it is. Pins are refcounted — Pin
// twice, Unpin twice — and in-memory only: they protect the serving
// process that holds them, not other processes sharing the directory.
func (s *Store) Pin(dataset string, version int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := s.pins[dataset]
	if m == nil {
		m = make(map[int]int)
		s.pins[dataset] = m
	}
	m[version]++
}

// Unpin releases one Pin reference. Unpinning a version that is not
// pinned is a no-op.
func (s *Store) Unpin(dataset string, version int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := s.pins[dataset]
	if m == nil {
		return
	}
	if m[version] > 1 {
		m[version]--
		return
	}
	delete(m, version)
	if len(m) == 0 {
		delete(s.pins, dataset)
	}
}

// Pinned returns the currently pinned versions of the dataset key,
// ascending.
func (s *Store) Pinned(dataset string) []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := s.pins[dataset]
	out := make([]int, 0, len(m))
	for v := range m {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// validateKey checks a dataset key: slash-separated segments of
// [a-zA-Z0-9._-] starting with an alphanumeric, so keys map onto
// directory paths without traversal or hidden-file surprises.
func validateKey(dataset string) error {
	if dataset == "" {
		return errors.New("store: dataset key must not be empty")
	}
	for _, seg := range strings.Split(dataset, "/") {
		if !keySegment.MatchString(seg) {
			return fmt.Errorf("store: invalid dataset key %q (segment %q; want [a-zA-Z0-9._-]+ starting alphanumeric)", dataset, seg)
		}
	}
	return nil
}

func (s *Store) datasetDir(dataset string) string {
	return filepath.Join(append([]string{s.dir}, strings.Split(dataset, "/")...)...)
}

func snapshotFile(version int) string { return fmt.Sprintf("v%06d.snap", version) }

// Save encodes the estimator and writes it as the next version of the
// dataset key, atomically, then folds it into the manifest. Only solved
// summaries are snapshot-able; see summary.EncodeEstimator.
func (s *Store) Save(dataset string, est core.Estimator) (SnapshotInfo, error) {
	if err := validateKey(dataset); err != nil {
		return SnapshotInfo{}, err
	}
	// The payload is encoded behind reserved header space, so sealing the
	// frame never copies it.
	var framed bytes.Buffer
	framed.Write(make([]byte, headerSize))
	if err := summary.EncodeEstimator(&framed, est); err != nil {
		return SnapshotInfo{}, fmt.Errorf("store: encode %q: %w", dataset, err)
	}
	sum, err := frame.Seal(framed.Bytes(), magic, formatVersion, maxPayload)
	if err != nil {
		return SnapshotInfo{}, fmt.Errorf("store: encode %q: %v", dataset, err)
	}

	s.mu.Lock()
	defer s.mu.Unlock()

	dir := s.datasetDir(dataset)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return SnapshotInfo{}, fmt.Errorf("store: create %s: %w", dir, err)
	}

	info := SnapshotInfo{
		Dataset:   dataset,
		Estimator: est.Name(),
		Bytes:     int64(framed.Len() - headerSize),
		Checksum:  sum,
		CreatedAt: s.now().UTC(),
	}
	version, err := s.claimVersion(dataset, framed.Bytes())
	if err != nil {
		return SnapshotInfo{}, err
	}
	info.Version = version
	if err := s.mergeIntoManifest(dataset, []SnapshotInfo{info}, nil); err != nil {
		return SnapshotInfo{}, err
	}
	return info, nil
}

// claimVersion writes the framed snapshot to a temp file and claims the
// next free version number by hard-linking it into place: link(2) fails
// on an existing target, so even a concurrent saver in another process
// can neither clobber this snapshot nor receive the same version — the
// loser of the race simply retries with the next number.
func (s *Store) claimVersion(dataset string, framed []byte) (int, error) {
	dir := s.datasetDir(dataset)
	tmp, err := os.CreateTemp(dir, ".snap.tmp-*")
	if err != nil {
		return 0, fmt.Errorf("store: write snapshot %q: %w", dataset, err)
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName)
	if _, err := tmp.Write(framed); err != nil {
		tmp.Close()
		return 0, fmt.Errorf("store: write snapshot %q: %w", dataset, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return 0, fmt.Errorf("store: write snapshot %q: %w", dataset, err)
	}
	if err := tmp.Close(); err != nil {
		return 0, fmt.Errorf("store: write snapshot %q: %w", dataset, err)
	}
	if err := os.Chmod(tmpName, 0o644); err != nil {
		return 0, fmt.Errorf("store: write snapshot %q: %w", dataset, err)
	}

	version := s.nextVersion(dataset)
	for attempt := 0; attempt < 1000; attempt, version = attempt+1, version+1 {
		err := os.Link(tmpName, filepath.Join(dir, snapshotFile(version)))
		if err == nil {
			return version, nil
		}
		if errors.Is(err, fs.ErrExist) {
			continue // lost the race for this number; try the next
		}
		return 0, fmt.Errorf("store: claim snapshot %q v%d: %w", dataset, version, err)
	}
	return 0, fmt.Errorf("store: could not claim a version for %q after 1000 attempts", dataset)
}

// nextVersion returns one past the highest version visible in either the
// manifest or the directory itself, so a stale manifest (e.g. one a
// concurrent writer has not merged yet) can never cause a version to be
// reused.
func (s *Store) nextVersion(dataset string) int {
	// An unreadable manifest counts as empty here: the directory still
	// bounds the versions in use.
	man, _ := s.readManifest(dataset)
	return s.highestVersion(dataset, man) + 1
}

// highestVersion returns the highest version in manifest ∪ directory, 0
// when the dataset has no snapshot.
func (s *Store) highestVersion(dataset string, man Manifest) int {
	max := 0
	if last, ok := man.Latest(); ok {
		max = last.Version
	}
	for _, v := range s.diskVersions(dataset) {
		if v > max {
			max = v
		}
	}
	return max
}

// resolve returns the manifest entry of one snapshot; version <= 0 selects
// the latest, the highest version in manifest ∪ directory. The manifest is
// an index, not the authority: with independent Store handles on one
// directory a racing manifest rewrite can drop the entry of a version whose
// file was linked after the rewriter's scan, until the next Save heals it.
// A version the manifest does not list is therefore looked up on disk and
// described from its verified frame; one that is neither listed nor on disk
// (never saved, or pruned) is ErrNotFound, and an unlisted file that fails
// verification is ErrCorrupt.
func (s *Store) resolve(dataset string, version int) (SnapshotInfo, error) {
	man, err := s.readManifest(dataset)
	if err != nil && !errors.Is(err, ErrNotFound) {
		return SnapshotInfo{}, err
	}
	if version <= 0 {
		if version = s.highestVersion(dataset, man); version == 0 {
			return SnapshotInfo{}, fmt.Errorf("store: dataset %q has no snapshots: %w", dataset, ErrNotFound)
		}
	}
	for _, sn := range man.Snapshots {
		if sn.Version == version {
			return sn, nil
		}
	}
	info, err := s.statSnapshot(dataset, version)
	if errors.Is(err, ErrNotFound) {
		return SnapshotInfo{}, fmt.Errorf("store: dataset %q has no version %d: %w", dataset, version, ErrNotFound)
	}
	if err != nil {
		return SnapshotInfo{}, fmt.Errorf("store: snapshot %q v%d: %w", dataset, version, err)
	}
	return info, nil
}

// diskVersions lists the snapshot versions physically present in the
// dataset directory, ascending.
func (s *Store) diskVersions(dataset string) []int {
	entries, err := os.ReadDir(s.datasetDir(dataset))
	if err != nil {
		return nil
	}
	var out []int
	for _, e := range entries {
		var v int
		if _, err := fmt.Sscanf(e.Name(), "v%06d.snap", &v); err == nil && snapshotFile(v) == e.Name() {
			out = append(out, v)
		}
	}
	sort.Ints(out)
	return out
}

// Load reads and verifies one snapshot and reconstructs its estimator.
// version <= 0 selects the latest. The returned estimator is query-ready;
// no solver work happens on this path, so load time is proportional to
// the summary size, independent of the summarized relation.
func (s *Store) Load(dataset string, version int) (core.Estimator, SnapshotInfo, error) {
	if err := validateKey(dataset); err != nil {
		return nil, SnapshotInfo{}, err
	}
	info, err := s.resolve(dataset, version)
	if err != nil {
		return nil, SnapshotInfo{}, err
	}
	path := filepath.Join(s.datasetDir(dataset), snapshotFile(info.Version))
	payload, _, err := readFramed(path)
	if err != nil {
		return nil, SnapshotInfo{}, fmt.Errorf("store: snapshot %q v%d: %w", dataset, info.Version, err)
	}
	est, err := summary.DecodeEstimator(bytes.NewReader(payload))
	if err != nil {
		return nil, SnapshotInfo{}, fmt.Errorf("store: snapshot %q v%d: %w: %v", dataset, info.Version, ErrCorrupt, err)
	}
	return est, info, nil
}

// readFramed reads a snapshot file and returns its verified payload and
// the payload's checksum.
func readFramed(path string) ([]byte, uint32, error) {
	f, err := os.Open(path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, 0, fmt.Errorf("%w: %v", ErrNotFound, err)
		}
		return nil, 0, err
	}
	defer f.Close()
	return verifyFrame(f)
}

// verifyFrame checks one snapshot frame — a file, or a bytes.Reader over a
// frame held in memory — and returns its payload and checksum. Every
// failure is ErrCorrupt.
func verifyFrame(in io.Reader) ([]byte, uint32, error) {
	payload, _, sum, err := frame.Verify(in, magic, formatVersion, formatVersion, maxPayload)
	if err != nil {
		return nil, 0, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return payload, sum, nil
}

// Versions returns the manifest of one dataset key.
func (s *Store) Versions(dataset string) (Manifest, error) {
	if err := validateKey(dataset); err != nil {
		return Manifest{}, err
	}
	return s.readManifest(dataset)
}

// SetParent records branch lineage in the dataset's manifest: the parent
// snapshot the dataset was forked from. The parent snapshot must exist,
// and the dataset must already have a manifest (fork first, then record
// parentage). Lineage is immutable once set — re-parenting a branch would
// silently rewrite history, so SetParent refuses to overwrite a different
// existing parent.
func (s *Store) SetParent(dataset string, parent Lineage) error {
	if err := validateKey(dataset); err != nil {
		return err
	}
	if err := validateKey(parent.Dataset); err != nil {
		return err
	}
	if dataset == parent.Dataset {
		return fmt.Errorf("store: dataset %q cannot be its own lineage parent", dataset)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	pman, err := s.readManifest(parent.Dataset)
	if err != nil {
		return err
	}
	found := false
	for _, sn := range pman.Snapshots {
		if sn.Version == parent.Version {
			found = true
			break
		}
	}
	if !found {
		return fmt.Errorf("store: lineage parent %q has no version %d: %w", parent.Dataset, parent.Version, ErrNotFound)
	}
	man, err := s.readManifest(dataset)
	if err != nil {
		return err
	}
	if man.Parent != nil && *man.Parent != parent {
		return fmt.Errorf("store: dataset %q already has lineage parent %s v%d", dataset, man.Parent.Dataset, man.Parent.Version)
	}
	man.Parent = &parent
	return s.writeManifest(dataset, man)
}

// List walks the store and returns every dataset manifest, sorted by
// dataset key.
func (s *Store) List() ([]Manifest, error) {
	var out []Manifest
	err := filepath.WalkDir(s.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || d.Name() != manifestName {
			return nil
		}
		rel, err := filepath.Rel(s.dir, filepath.Dir(path))
		if err != nil {
			return err
		}
		man, err := s.readManifest(filepath.ToSlash(rel))
		if err != nil {
			return err
		}
		out = append(out, man)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("store: list: %w", err)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Dataset < out[j].Dataset })
	return out, nil
}

// Prune deletes all but the newest keep snapshots of the dataset key and
// returns the removed entries. keep must be at least 1 — pruning to
// nothing is deleting a dataset, which Prune refuses to do implicitly.
// Versions pinned by a live serving process (see Pin) are never removed,
// even when they fall outside the newest keep: pruning the snapshot a
// registry entry is currently serving would leave a restart with nothing
// to restore that entry from. Versions recorded as another dataset's
// lineage parent (see SetParent) are implicitly pinned for the same
// reason: removing a branch's fork point would orphan the branch's
// history.
func (s *Store) Prune(dataset string, keep int) ([]SnapshotInfo, error) {
	if err := validateKey(dataset); err != nil {
		return nil, err
	}
	if keep < 1 {
		return nil, fmt.Errorf("store: prune must keep at least 1 snapshot, got %d", keep)
	}
	s.mu.Lock()
	defer s.mu.Unlock()

	man, err := s.readManifest(dataset)
	if err != nil {
		return nil, err
	}
	if len(man.Snapshots) <= keep {
		return nil, nil
	}
	forks, err := s.forkPoints(dataset)
	if err != nil {
		return nil, err
	}
	cut := len(man.Snapshots) - keep
	var removed []SnapshotInfo
	drop := make(map[int]bool, cut)
	pinned := s.pins[dataset]
	for _, sn := range man.Snapshots[:cut] {
		if pinned[sn.Version] > 0 || forks[sn.Version] {
			continue
		}
		removed = append(removed, sn)
		drop[sn.Version] = true
	}
	if len(removed) == 0 {
		return nil, nil
	}
	// Publish the shrunken manifest first: a reader that raced the file
	// removal would otherwise pick a version from the manifest and find
	// its file gone.
	if err := s.mergeIntoManifest(dataset, nil, drop); err != nil {
		return nil, err
	}
	dir := s.datasetDir(dataset)
	for _, sn := range removed {
		if err := os.Remove(filepath.Join(dir, snapshotFile(sn.Version))); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return removed, fmt.Errorf("store: prune %q v%d: %w", dataset, sn.Version, err)
		}
	}
	return removed, nil
}

// forkPoints walks every manifest in the store and returns the versions
// of dataset that some other dataset records as its lineage parent. Prune
// treats these as implicitly pinned. Callers hold s.mu.
func (s *Store) forkPoints(dataset string) (map[int]bool, error) {
	out := make(map[int]bool)
	err := filepath.WalkDir(s.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || d.Name() != manifestName {
			return nil
		}
		rel, err := filepath.Rel(s.dir, filepath.Dir(path))
		if err != nil {
			return err
		}
		child := filepath.ToSlash(rel)
		if child == dataset {
			return nil
		}
		man, err := s.readManifest(child)
		if err != nil {
			// A damaged sibling manifest must not unblock pruning a fork
			// point it might have recorded — fail closed.
			return err
		}
		if man.Parent != nil && man.Parent.Dataset == dataset {
			out[man.Parent.Version] = true
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("store: scanning lineage before prune: %w", err)
	}
	return out, nil
}

// --- manifest ---------------------------------------------------------

// mergeIntoManifest rewrites the dataset manifest as the union of what is
// on disk (manifest ∪ directory ∪ add, minus drop): entries published by
// concurrent writers are folded in instead of overwritten, and snapshot
// files missing from the manifest (a lost interleaving) are healed back
// in with entries synthesized from their verified frames. Callers hold
// s.mu.
func (s *Store) mergeIntoManifest(dataset string, add []SnapshotInfo, drop map[int]bool) error {
	man, err := s.readManifest(dataset)
	if err != nil && !errors.Is(err, ErrNotFound) {
		return err
	}
	man.Dataset = dataset
	byVersion := make(map[int]SnapshotInfo, len(man.Snapshots)+len(add))
	for _, sn := range man.Snapshots {
		byVersion[sn.Version] = sn
	}
	for _, sn := range add {
		byVersion[sn.Version] = sn
	}
	for _, v := range s.diskVersions(dataset) {
		if _, ok := byVersion[v]; ok {
			continue
		}
		if sn, err := s.statSnapshot(dataset, v); err == nil {
			byVersion[v] = sn
		}
		// A file that fails verification stays out of the manifest; Load
		// would reject it anyway.
	}
	man.Snapshots = man.Snapshots[:0]
	for v, sn := range byVersion {
		if drop[v] {
			continue
		}
		man.Snapshots = append(man.Snapshots, sn)
	}
	sort.Slice(man.Snapshots, func(i, j int) bool { return man.Snapshots[i].Version < man.Snapshots[j].Version })
	return s.writeManifest(dataset, man)
}

// statSnapshot synthesizes a manifest entry for a snapshot file the
// manifest does not know about, from its verified frame and payload
// prefix.
func (s *Store) statSnapshot(dataset string, version int) (SnapshotInfo, error) {
	path := filepath.Join(s.datasetDir(dataset), snapshotFile(version))
	payload, sum, err := readFramed(path)
	if err != nil {
		return SnapshotInfo{}, err
	}
	name, err := summary.PeekName(bytes.NewReader(payload))
	if err != nil {
		return SnapshotInfo{}, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	created := time.Time{}
	if fi, err := os.Stat(path); err == nil {
		created = fi.ModTime().UTC()
	}
	return SnapshotInfo{
		Dataset:   dataset,
		Version:   version,
		Estimator: name,
		Bytes:     int64(len(payload)),
		Checksum:  sum,
		CreatedAt: created,
	}, nil
}

func (s *Store) readManifest(dataset string) (Manifest, error) {
	data, err := os.ReadFile(filepath.Join(s.datasetDir(dataset), manifestName))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return Manifest{Dataset: dataset}, fmt.Errorf("store: dataset %q: %w", dataset, ErrNotFound)
		}
		return Manifest{}, fmt.Errorf("store: manifest of %q: %w", dataset, err)
	}
	var man Manifest
	if err := json.Unmarshal(data, &man); err != nil {
		return Manifest{}, fmt.Errorf("store: manifest of %q: %w: %v", dataset, ErrCorrupt, err)
	}
	sort.Slice(man.Snapshots, func(i, j int) bool { return man.Snapshots[i].Version < man.Snapshots[j].Version })
	return man, nil
}

func (s *Store) writeManifest(dataset string, man Manifest) error {
	data, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return fmt.Errorf("store: manifest of %q: %w", dataset, err)
	}
	if err := atomicWrite(filepath.Join(s.datasetDir(dataset), manifestName), append(data, '\n')); err != nil {
		return fmt.Errorf("store: manifest of %q: %w", dataset, err)
	}
	return nil
}

// atomicWrite writes data to a temporary file in the target's directory,
// fsyncs it, and renames it into place, so the target path only ever
// holds a complete file.
func atomicWrite(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	cleanup := func() {
		tmp.Close()
		os.Remove(tmpName)
	}
	if _, err := tmp.Write(data); err != nil {
		cleanup()
		return err
	}
	if err := tmp.Sync(); err != nil {
		cleanup()
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	// CreateTemp defaults to 0600; snapshots are shared, read-only
	// artifacts.
	if err := os.Chmod(tmpName, 0o644); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return err
	}
	return nil
}

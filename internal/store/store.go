// Package store persists solved summaries as immutable, versioned
// snapshots on disk, following the bolt-on versioning approach of
// OrpheusDB: the expensive artifact — a converged MaxEnt model — is built
// once (by cmd/summarize or a serving build) and then restored on every
// cold start in time proportional to the summary size, never the relation
// size.
//
// Layout: one directory per dataset key (keys are slash-separated name
// segments, conventionally "<dataset>/<strategy>"), holding monotonically
// versioned snapshot files v000001.snap, v000002.snap, …. The directory is
// the only authority: a version of a key exists iff its file is linked, and
// everything the store says about it (size, checksum, estimator name,
// creation time) is read off that file's verified frame and its mtime.
// Nothing re-describes the files, so there is nothing a crash can leave
// inconsistent with them. Any other file in a dataset directory (such as
// the MANIFEST.json older builds kept there) is never read, written or
// deleted. Every snapshot is written to a temporary name and linked into
// place, so readers never observe a partial file and a crashed writer
// leaves at most a *.tmp-* straggler.
//
// On-disk snapshot framing (internal/frame): an 8-byte magic, a format
// version, the payload length, and a CRC32-C checksum, followed by the
// payload produced by summary.EncodeEstimator. Load verifies all four before
// decoding, so truncated or corrupted files are rejected with descriptive
// errors instead of being decoded into a silently-wrong model.
package store

import (
	"bytes"
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

// SnapshotInfo describes one stored snapshot, as read off its file; it is
// also the wire shape of each version GET /snapshots lists.
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
	// CreatedAt is the snapshot file's modification time (UTC): when this
	// node saved or imported it.
	CreatedAt time.Time `json:"created_at"`
}

// Manifest is the view of one dataset key: its sound snapshots, ascending
// by version. It is assembled from the directory on every call, never
// stored.
type Manifest struct {
	Dataset   string         `json:"dataset"`
	Snapshots []SnapshotInfo `json:"snapshots"`
}

// Latest returns the newest snapshot of the manifest.
func (m Manifest) Latest() (SnapshotInfo, bool) {
	if len(m.Snapshots) == 0 {
		return SnapshotInfo{}, false
	}
	return m.Snapshots[len(m.Snapshots)-1], true
}

// Store is a directory-backed snapshot store. Writers within one process
// are serialized by an internal mutex; reads are lock-free and may run
// concurrently with saves, because a linked snapshot file is immutable and
// becomes visible only complete.
//
// Across processes (a batch cmd/summarize writing the directory a live
// summaryd serves from), safety rests on the filesystem: a version is
// claimed by link(2)ing the finished temp file to its final name, which
// fails on an existing target — so a snapshot file, once saved, can never
// be clobbered and version numbers are never handed out twice. Every
// handle reads the same directory, so there is no shared index for
// concurrent writers to lose entries from.
type Store struct {
	dir string
	mu  sync.Mutex
	// pins refcounts the snapshot versions currently referenced by live
	// serving code (dataset key → version → refcount); Prune never removes
	// a pinned version.
	pins map[string]map[int]int

	// known remembers the description of snapshot files this handle has
	// verified. A linked file is immutable, so a listing re-reads only the
	// files it has not described yet; any failed read of a file forgets it.
	knownMu sync.Mutex
	known   map[snapshotID]SnapshotInfo
}

type snapshotID struct {
	dataset string
	version int
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
	probe, err := stageFile(dir, ".probe-*", nil)
	if err != nil {
		return nil, fmt.Errorf("store: directory %s is not writable: %w", dir, err)
	}
	if err := os.Remove(probe); err != nil {
		return nil, fmt.Errorf("store: cleaning writability probe: %w", err)
	}
	return &Store{dir: dir, pins: make(map[string]map[int]int), known: make(map[snapshotID]SnapshotInfo)}, nil
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

func (s *Store) snapshotPath(dataset string, version int) string {
	return filepath.Join(s.datasetDir(dataset), snapshotFile(version))
}

// snapshotVersion parses a directory entry name as a snapshot file.
func snapshotVersion(name string) (int, bool) {
	var v int
	if _, err := fmt.Sscanf(name, "v%06d.snap", &v); err != nil || v < 1 || snapshotFile(v) != name {
		return 0, false
	}
	return v, true
}

// Save encodes the estimator and links it in as the next version of the
// dataset key. Only solved summaries are snapshot-able; see
// summary.EncodeEstimator.
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
	if _, err := frame.Seal(framed.Bytes(), magic, formatVersion, maxPayload); err != nil {
		return SnapshotInfo{}, fmt.Errorf("store: encode %q: %v", dataset, err)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	version, err := s.claimVersion(dataset, framed.Bytes())
	if err != nil {
		return SnapshotInfo{}, err
	}
	_, info, err := s.readSnapshot(dataset, version)
	return info, err
}

// claimVersion writes the framed snapshot to a temp file and claims the
// next free version number by hard-linking it into place: link(2) fails
// on an existing target, so even a concurrent saver in another process
// can neither clobber this snapshot nor receive the same version — the
// loser of the race simply retries with the next number.
func (s *Store) claimVersion(dataset string, framed []byte) (int, error) {
	dir := s.datasetDir(dataset)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, fmt.Errorf("store: create %s: %w", dir, err)
	}
	tmp, err := stageFile(dir, ".snap.tmp-*", framed)
	if err != nil {
		return 0, fmt.Errorf("store: write snapshot %q: %w", dataset, err)
	}
	defer os.Remove(tmp)

	// One past the highest linked file, sound or not: a number that was
	// ever handed out is never reused.
	version := s.latestLinked(dataset) + 1
	for attempt := 0; attempt < 1000; attempt, version = attempt+1, version+1 {
		err := os.Link(tmp, filepath.Join(dir, snapshotFile(version)))
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

// linkedVersions lists the snapshot versions linked in the dataset
// directory, ascending.
func (s *Store) linkedVersions(dataset string) []int {
	entries, err := os.ReadDir(s.datasetDir(dataset))
	if err != nil {
		return nil
	}
	var out []int
	for _, e := range entries {
		if v, ok := snapshotVersion(e.Name()); ok {
			out = append(out, v)
		}
	}
	sort.Ints(out)
	return out
}

// latestLinked returns the highest linked version of the dataset key, 0
// when it has none.
func (s *Store) latestLinked(dataset string) int {
	linked := s.linkedVersions(dataset)
	if len(linked) == 0 {
		return 0
	}
	return linked[len(linked)-1]
}

// readSnapshot reads one linked snapshot file and returns its verified
// frame — header, then payload — and its description. It is the one place a
// SnapshotInfo is made: checksum and length from the frame header, the
// estimator name from the payload's prefix, the creation time from the
// file's mtime; the handle remembers it until a read of the file fails.
// version <= 0 selects the latest: the highest linked version, whether or
// not it verifies (a damaged newest file is ErrCorrupt, never silently an
// older model). A version that is not linked (never saved, or pruned) is
// ErrNotFound.
func (s *Store) readSnapshot(dataset string, version int) ([]byte, SnapshotInfo, error) {
	if version <= 0 {
		if version = s.latestLinked(dataset); version == 0 {
			return nil, SnapshotInfo{}, fmt.Errorf("store: dataset %q has no snapshots: %w", dataset, ErrNotFound)
		}
	}
	framed, info, err := readDescribed(s.snapshotPath(dataset, version))
	if err != nil {
		s.forget(dataset, version)
		if errors.Is(err, fs.ErrNotExist) {
			return nil, SnapshotInfo{}, fmt.Errorf("store: dataset %q has no version %d: %w", dataset, version, ErrNotFound)
		}
		return nil, SnapshotInfo{}, fmt.Errorf("store: snapshot %q v%d: %w", dataset, version, err)
	}
	info.Dataset, info.Version = dataset, version
	s.knownMu.Lock()
	s.known[snapshotID{dataset, version}] = info
	s.knownMu.Unlock()
	return framed, info, nil
}

// readDescribed reads the snapshot file at path and describes what it
// holds; the caller fills in the key and version the path stands for.
func readDescribed(path string) ([]byte, SnapshotInfo, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, SnapshotInfo{}, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, SnapshotInfo{}, err
	}
	framed := make([]byte, fi.Size())
	if _, err := io.ReadFull(f, framed); err != nil {
		return nil, SnapshotInfo{}, err
	}
	sum, name, err := verifyFrame(framed)
	if err != nil {
		return nil, SnapshotInfo{}, err
	}
	return framed, SnapshotInfo{
		Estimator: name,
		Bytes:     int64(len(framed) - headerSize),
		Checksum:  sum,
		CreatedAt: fi.ModTime().UTC(),
	}, nil
}

// verifyFrame checks one snapshot frame held in memory — framing, checksum
// and a decodable estimator name at the head of the payload, which is
// framed[headerSize:] — and returns the checksum and the name. Every
// failure is ErrCorrupt.
func verifyFrame(framed []byte) (uint32, string, error) {
	payload, _, sum, err := frame.Verify(bytes.NewReader(framed), magic, formatVersion, formatVersion, maxPayload)
	if err != nil {
		return 0, "", fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	name, err := summary.PeekName(payload)
	if err != nil {
		return 0, "", fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return sum, name, nil
}

func (s *Store) forget(dataset string, version int) {
	s.knownMu.Lock()
	delete(s.known, snapshotID{dataset, version})
	s.knownMu.Unlock()
}

// Load reads and verifies one snapshot and reconstructs its estimator.
// version <= 0 selects the latest. The returned estimator is query-ready;
// no solver work happens on this path, so load time is proportional to
// the summary size, independent of the summarized relation.
func (s *Store) Load(dataset string, version int) (core.Estimator, SnapshotInfo, error) {
	if err := validateKey(dataset); err != nil {
		return nil, SnapshotInfo{}, err
	}
	framed, info, err := s.readSnapshot(dataset, version)
	if err != nil {
		return nil, SnapshotInfo{}, err
	}
	est, err := summary.DecodeEstimator(bytes.NewReader(framed[headerSize:]))
	if err != nil {
		return nil, SnapshotInfo{}, fmt.Errorf("store: snapshot %q v%d: %w: %v", dataset, info.Version, ErrCorrupt, err)
	}
	return est, info, nil
}

// Versions returns the view of one dataset key: every linked version whose
// file verifies. A key with no linked snapshot file
// is ErrNotFound.
func (s *Store) Versions(dataset string) (Manifest, error) {
	if err := validateKey(dataset); err != nil {
		return Manifest{}, err
	}
	return s.manifest(dataset, s.linkedVersions(dataset))
}

// manifest assembles the view of a key from its linked versions. A file the
// handle has described before is not read again; one that does not verify is
// not a version and is left out.
func (s *Store) manifest(dataset string, linked []int) (Manifest, error) {
	if len(linked) == 0 {
		return Manifest{}, fmt.Errorf("store: dataset %q: %w", dataset, ErrNotFound)
	}
	man := Manifest{Dataset: dataset, Snapshots: make([]SnapshotInfo, 0, len(linked))}
	for _, v := range linked {
		s.knownMu.Lock()
		info, ok := s.known[snapshotID{dataset, v}]
		s.knownMu.Unlock()
		if !ok {
			var err error
			if _, info, err = s.readSnapshot(dataset, v); err != nil {
				if errors.Is(err, ErrCorrupt) || errors.Is(err, ErrNotFound) {
					continue
				}
				return Manifest{}, err
			}
		}
		man.Snapshots = append(man.Snapshots, info)
	}
	return man, nil
}

// keyVersions is one dataset key found by scan and its linked versions,
// ascending.
type keyVersions struct {
	key    string
	linked []int
}

// scan walks the store once and returns every dataset key — a directory
// holding at least one snapshot file — sorted by key.
func (s *Store) scan() ([]keyVersions, error) {
	var out []keyVersions
	at := make(map[string]int)
	err := filepath.WalkDir(s.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		v, ok := snapshotVersion(d.Name())
		if d.IsDir() || !ok {
			return nil
		}
		rel, err := filepath.Rel(s.dir, filepath.Dir(path))
		if err != nil {
			return err
		}
		key := filepath.ToSlash(rel)
		i, seen := at[key]
		if !seen {
			i, at[key] = len(out), len(out)
			out = append(out, keyVersions{key: key})
		}
		out[i].linked = append(out[i].linked, v)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, kv := range out {
		sort.Ints(kv.linked)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out, nil
}

// List walks the store and returns the view of every dataset key, sorted
// by key.
func (s *Store) List() ([]Manifest, error) {
	keys, err := s.scan()
	if err != nil {
		return nil, fmt.Errorf("store: list: %w", err)
	}
	out := make([]Manifest, 0, len(keys))
	for _, kv := range keys {
		man, err := s.manifest(kv.key, kv.linked)
		if err != nil {
			return nil, fmt.Errorf("store: list: %w", err)
		}
		out = append(out, man)
	}
	return out, nil
}

// Prune deletes all but the newest keep snapshots of the dataset key and
// returns the removed entries. keep must be at least 1 — pruning to
// nothing is deleting a dataset, which Prune refuses to do implicitly.
// Versions pinned by a live serving process (see Pin) are never removed,
// even when they fall outside the newest keep: pruning the snapshot a
// registry entry is currently serving would leave a restart with nothing
// to restore that entry from. A file that fails verification is not a
// snapshot: Prune neither counts nor deletes it (deleting a damaged newest
// file would hand its version number out again).
func (s *Store) Prune(dataset string, keep int) ([]SnapshotInfo, error) {
	if err := validateKey(dataset); err != nil {
		return nil, err
	}
	if keep < 1 {
		return nil, fmt.Errorf("store: prune must keep at least 1 snapshot, got %d", keep)
	}
	s.mu.Lock()
	defer s.mu.Unlock()

	man, err := s.manifest(dataset, s.linkedVersions(dataset))
	if err != nil {
		return nil, err
	}
	if len(man.Snapshots) <= keep {
		return nil, nil
	}
	var removed []SnapshotInfo
	pinned := s.pins[dataset]
	for _, sn := range man.Snapshots[:len(man.Snapshots)-keep] {
		if pinned[sn.Version] > 0 {
			continue
		}
		if err := os.Remove(s.snapshotPath(dataset, sn.Version)); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return removed, fmt.Errorf("store: prune %q v%d: %w", dataset, sn.Version, err)
		}
		s.forget(dataset, sn.Version)
		removed = append(removed, sn)
	}
	return removed, nil
}

// stageFile writes data to a new temporary file in dir, fsyncs it and
// returns its name, ready to be linked or renamed into place — so a final
// path only ever holds a complete, durable file. The caller removes the
// temp name.
func stageFile(dir, pattern string, data []byte) (string, error) {
	tmp, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return "", err
	}
	name := tmp.Name()
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		// CreateTemp defaults to 0600; snapshots are shared, read-only
		// artifacts.
		err = os.Chmod(name, 0o644)
	}
	if err != nil {
		os.Remove(name)
		return "", err
	}
	return name, nil
}

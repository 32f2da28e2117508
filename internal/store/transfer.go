package store

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
)

// This file is the fleet-replication face of the store: snapshots travel
// between nodes as their verified on-disk frames, and a replica imports
// them AT THE SAME VERSION NUMBER the origin assigned. Version identity is
// what makes replication a pure pull-by-version problem (the OrpheusDB
// framing): "demo/maxent v7" names the same bits on every node, so
// convergence is checkable by comparing version sets and answers are
// bit-identical wherever v7 is served from.

// ReadFramed returns the complete framed bytes of one snapshot exactly as
// they sit on disk — header, checksum, payload — after verifying the
// frame, plus its description. version <= 0 selects the latest. It is
// the serving side of peer snapshot sync (GET /sync/snapshot): the frame
// is already integrity-protected, so peers transfer and verify it without
// re-encoding.
func (s *Store) ReadFramed(dataset string, version int) ([]byte, SnapshotInfo, error) {
	if err := validateKey(dataset); err != nil {
		return nil, SnapshotInfo{}, err
	}
	return s.readSnapshot(dataset, version)
}

// ImportFramed stores a framed snapshot fetched from a peer under the
// dataset key at exactly the version the peer assigned, preserving
// fleet-wide version identity. The frame is fully verified (framing,
// checksum, decodable payload name) before anything touches disk.
// Importing a version that is already present is an idempotent no-op when
// the bytes carry the same checksum, and an error when they differ — two
// nodes disagreeing about what "v7" is must fail loudly, never silently
// shadow one another. A local file that no longer verifies is not a
// version: the import replaces it, which is how a replica heals a damaged
// snapshot from its origin.
func (s *Store) ImportFramed(dataset string, version int, framed []byte) (SnapshotInfo, error) {
	if err := validateKey(dataset); err != nil {
		return SnapshotInfo{}, err
	}
	if version < 1 {
		return SnapshotInfo{}, fmt.Errorf("store: import of %q needs a version >= 1, got %d", dataset, version)
	}
	sum, _, err := verifyFrame(framed)
	if err != nil {
		return SnapshotInfo{}, fmt.Errorf("store: import %q v%d: %w", dataset, version, err)
	}

	s.mu.Lock()
	defer s.mu.Unlock()

	dir := s.datasetDir(dataset)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return SnapshotInfo{}, fmt.Errorf("store: create %s: %w", dir, err)
	}
	tmp, err := stageFile(dir, ".snap.tmp-*", framed)
	if err != nil {
		return SnapshotInfo{}, fmt.Errorf("store: import %q v%d: %w", dataset, version, err)
	}
	defer os.Remove(tmp)
	// link(2) claims the exact version: it fails on an existing target, so a
	// concurrent local save or a racing second import can never be
	// clobbered.
	final := s.snapshotPath(dataset, version)
	err = os.Link(tmp, final)
	if errors.Is(err, fs.ErrExist) {
		_, have, herr := s.readSnapshot(dataset, version)
		switch {
		case herr == nil && have.Checksum == sum:
			return have, nil
		case herr == nil:
			return SnapshotInfo{}, fmt.Errorf("store: import %q v%d: version exists with different content", dataset, version)
		case !errors.Is(herr, ErrCorrupt):
			return SnapshotInfo{}, herr
		}
		err = os.Rename(tmp, final)
	}
	if err != nil {
		return SnapshotInfo{}, fmt.Errorf("store: import %q v%d: %w", dataset, version, err)
	}
	_, info, err := s.readSnapshot(dataset, version)
	return info, err
}

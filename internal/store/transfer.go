package store

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

	"repro/internal/summary"
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
// frame, plus its manifest entry. version <= 0 selects the latest. It is
// the serving side of peer snapshot sync (GET /sync/snapshot): the frame
// is already integrity-protected, so peers transfer and verify it without
// re-encoding.
func (s *Store) ReadFramed(dataset string, version int) ([]byte, SnapshotInfo, error) {
	if err := validateKey(dataset); err != nil {
		return nil, SnapshotInfo{}, err
	}
	info, err := s.resolve(dataset, version)
	if err != nil {
		return nil, SnapshotInfo{}, err
	}
	path := filepath.Join(s.datasetDir(dataset), snapshotFile(info.Version))
	framed, err := os.ReadFile(path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, SnapshotInfo{}, fmt.Errorf("store: snapshot %q v%d: %w", dataset, info.Version, ErrNotFound)
		}
		return nil, SnapshotInfo{}, fmt.Errorf("store: snapshot %q v%d: %w", dataset, info.Version, err)
	}
	if _, _, err := verifyFrame(bytes.NewReader(framed)); err != nil {
		return nil, SnapshotInfo{}, fmt.Errorf("store: snapshot %q v%d: %w", dataset, info.Version, err)
	}
	return framed, info, nil
}

// holds reports whether a snapshot file exists at path and, when it does,
// whether it is a sound frame whose payload has checksum sum.
func holds(path string, sum uint32) (exists, same bool) {
	_, have, err := readFramed(path)
	if err != nil {
		return errors.Is(err, ErrCorrupt), false
	}
	return true, have == sum
}

// ImportFramed stores a framed snapshot fetched from a peer under the
// dataset key at exactly the version the peer assigned, preserving
// fleet-wide version identity. The frame is fully verified (framing,
// checksum, decodable payload name) before anything touches disk.
// Importing a version that is already present is an idempotent no-op when
// the bytes carry the same checksum, and an error when they differ — two
// nodes disagreeing about what "v7" is must fail loudly, never silently
// shadow one another.
func (s *Store) ImportFramed(dataset string, version int, framed []byte) (SnapshotInfo, error) {
	if err := validateKey(dataset); err != nil {
		return SnapshotInfo{}, err
	}
	if version < 1 {
		return SnapshotInfo{}, fmt.Errorf("store: import of %q needs a version >= 1, got %d", dataset, version)
	}
	payload, sum, err := verifyFrame(bytes.NewReader(framed))
	if err != nil {
		return SnapshotInfo{}, fmt.Errorf("store: import %q v%d: %w", dataset, version, err)
	}
	name, err := summary.PeekName(bytes.NewReader(payload))
	if err != nil {
		return SnapshotInfo{}, fmt.Errorf("store: import %q v%d: %w: %v", dataset, version, ErrCorrupt, err)
	}

	s.mu.Lock()
	defer s.mu.Unlock()

	dir := s.datasetDir(dataset)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return SnapshotInfo{}, fmt.Errorf("store: create %s: %w", dir, err)
	}
	info := SnapshotInfo{
		Dataset:   dataset,
		Version:   version,
		Estimator: name,
		Bytes:     int64(len(payload)),
		Checksum:  sum,
		CreatedAt: s.now().UTC(),
	}

	final := filepath.Join(dir, snapshotFile(version))
	if exists, same := holds(final, sum); exists {
		// The version already exists locally; same bits → idempotent no-op,
		// different bits → a split-brain version conflict.
		if same {
			return info, s.mergeIntoManifest(dataset, []SnapshotInfo{info}, nil)
		}
		return SnapshotInfo{}, fmt.Errorf("store: import %q v%d: version exists with different content", dataset, version)
	}

	tmp, err := os.CreateTemp(dir, ".snap.tmp-*")
	if err != nil {
		return SnapshotInfo{}, fmt.Errorf("store: import %q v%d: %w", dataset, version, err)
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName)
	if _, err := tmp.Write(framed); err != nil {
		tmp.Close()
		return SnapshotInfo{}, fmt.Errorf("store: import %q v%d: %w", dataset, version, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return SnapshotInfo{}, fmt.Errorf("store: import %q v%d: %w", dataset, version, err)
	}
	if err := tmp.Close(); err != nil {
		return SnapshotInfo{}, fmt.Errorf("store: import %q v%d: %w", dataset, version, err)
	}
	if err := os.Chmod(tmpName, 0o644); err != nil {
		return SnapshotInfo{}, fmt.Errorf("store: import %q v%d: %w", dataset, version, err)
	}
	// link(2) claims the exact version: it fails on an existing target, so a
	// concurrent local save or a racing second import can never be
	// clobbered. Losing the race to identical bytes is still success.
	if err := os.Link(tmpName, final); err != nil {
		if errors.Is(err, fs.ErrExist) {
			if _, same := holds(final, sum); same {
				return info, s.mergeIntoManifest(dataset, []SnapshotInfo{info}, nil)
			}
			return SnapshotInfo{}, fmt.Errorf("store: import %q v%d: version exists with different content", dataset, version)
		}
		return SnapshotInfo{}, fmt.Errorf("store: import %q v%d: %w", dataset, version, err)
	}
	if err := s.mergeIntoManifest(dataset, []SnapshotInfo{info}, nil); err != nil {
		return SnapshotInfo{}, err
	}
	return info, nil
}

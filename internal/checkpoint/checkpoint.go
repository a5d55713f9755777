// Package checkpoint is the study's durable incremental progress store:
// an append-only sequence of per-stage segments (resolve, spoof survey,
// initial measurement, notification, one per longitudinal round, final
// snapshot) under a manifest that names, sizes, and checksums each one.
// It replaces the ad-hoc per-probe CSV stream spfail-study used to call
// a checkpoint: instead of a flat row log that could only be grepped, a
// killed study restarts from the manifest and replays to a final report,
// scenarios table, and trace JSONL byte-identical to an uninterrupted
// same-seed run (see docs/checkpoints.md for the determinism model).
//
// Commit protocol, in order, per segment:
//
//  1. the payload is written to a temporary file in the store directory,
//     fsynced, and renamed to its final segments/ name;
//  2. the manifest — now listing the new segment with its FNV-1a
//     checksum — is written to a temporary file, fsynced, and renamed
//     over manifest.json.
//
// The manifest is the sole source of truth: a crash between the two
// renames leaves an orphan segment file that the next resume ignores and
// the next commit overwrites. Corruption detected at resume (missing or
// truncated segment, checksum mismatch, malformed manifest) fails with
// ErrResumeImpossible rather than silently dropping rounds.
package checkpoint

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"spfail/internal/telemetry"
)

// ErrResumeImpossible is wrapped by every error that means the store
// cannot seed a byte-identical resume: a corrupt or missing segment, a
// malformed manifest, or a fingerprint from a different configuration.
// Callers should start a fresh run (losing the checkpoint) or restore
// the directory; nothing in this package ever repairs silently.
var ErrResumeImpossible = errors.New("resume impossible")

// manifestVersion is the store format version, written in the manifest
// and after every segment's magic. It is bumped on any incompatible
// layout change; version 1 stores held JSON segments.
const manifestVersion = 2

// manifestName is the store's root file; segments live in segmentsDir.
const (
	manifestName = "manifest.json"
	segmentsDir  = "segments"
)

// Manifest is the store's committed state: the configuration fingerprint
// it was created under and the ordered segment list.
type Manifest struct {
	Version     int           `json:"version"`
	Fingerprint string        `json:"fingerprint"`
	Segments    []SegmentMeta `json:"segments"`
}

// SegmentMeta describes one committed segment. Checksum is the FNV-1a
// (64-bit) hash of the payload bytes, hex-encoded; Probes counts the
// measurement outcomes inside, so readers can report durable progress
// without decoding payloads.
type SegmentMeta struct {
	Seq      int    `json:"seq"`
	Name     string `json:"name"`
	File     string `json:"file"`
	Size     int64  `json:"size"`
	Checksum string `json:"checksum_fnv64a"`
	Probes   int    `json:"probes,omitempty"`
}

// Store is the writer half: an append-only segment log under one
// directory. A Store is safe for use from one writer goroutine;
// concurrent readers use Reader, which snapshots the manifest file and
// never sees a half-committed segment.
type Store struct {
	dir string
	reg *telemetry.Registry

	mu       sync.Mutex
	manifest Manifest // guarded by mu
}

// Create initializes dir as a fresh store stamped with fingerprint,
// removing any segments and manifest a previous run left behind.
func Create(dir, fingerprint string, reg *telemetry.Registry) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("checkpoint: empty store directory")
	}
	if err := os.MkdirAll(filepath.Join(dir, segmentsDir), 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	if err := clearStale(dir); err != nil {
		return nil, err
	}
	s := &Store{dir: dir, reg: reg, manifest: Manifest{Version: manifestVersion, Fingerprint: fingerprint}}
	if err := s.writeManifestLocked(); err != nil {
		return nil, err
	}
	return s, nil
}

// Open loads dir for resume, verifying the manifest, the fingerprint,
// and every committed segment's size and checksum up front, so a
// corrupt store fails before any probing starts.
func Open(dir, fingerprint string, reg *telemetry.Registry) (*Store, error) {
	m, err := readManifest(dir)
	if err != nil {
		return nil, err
	}
	if m.Fingerprint != fingerprint {
		return nil, fmt.Errorf("checkpoint: %w: store fingerprint %s does not match this run's %s (spec or config drift)",
			ErrResumeImpossible, m.Fingerprint, fingerprint)
	}
	s := &Store{dir: dir, reg: reg, manifest: m}
	for _, meta := range m.Segments {
		if _, err := s.Read(meta); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Segments returns a copy of the committed segment list in commit order.
func (s *Store) Segments() []SegmentMeta {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]SegmentMeta(nil), s.manifest.Segments...)
}

// Commit appends one segment: payload becomes segment file number
// len(segments) named name, and the manifest is atomically replaced to
// include it. probes is recorded for progress reporting.
func (s *Store) Commit(name string, probes int, payload []byte) (SegmentMeta, error) {
	if err := validSegmentName(name); err != nil {
		return SegmentMeta{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	seq := len(s.manifest.Segments)
	meta := SegmentMeta{
		Seq:      seq,
		Name:     name,
		File:     fmt.Sprintf("%04d-%s.seg", seq, name),
		Size:     int64(len(payload)),
		Checksum: fmt.Sprintf("%016x", checksum(payload)),
		Probes:   probes,
	}
	if err := atomicWrite(filepath.Join(s.dir, segmentsDir, meta.File), payload); err != nil {
		return SegmentMeta{}, fmt.Errorf("checkpoint: committing segment %s: %w", name, err)
	}
	s.manifest.Segments = append(s.manifest.Segments, meta)
	if err := s.writeManifestLocked(); err != nil {
		s.manifest.Segments = s.manifest.Segments[:seq]
		return SegmentMeta{}, err
	}
	s.reg.Counter("checkpoint.store.commits").Inc()
	s.reg.Counter("checkpoint.store.bytes").Add(int64(len(payload)))
	return meta, nil
}

// Read returns a committed segment's payload, verifying its checksum.
func (s *Store) Read(meta SegmentMeta) ([]byte, error) {
	return readSegment(s.dir, meta)
}

// writeManifestLocked atomically replaces manifest.json with the current
// in-memory manifest. Callers hold s.mu.
//
//spfail:locked s.mu
func (s *Store) writeManifestLocked() error {
	b, err := json.MarshalIndent(&s.manifest, "", "  ")
	if err != nil {
		return fmt.Errorf("checkpoint: encoding manifest: %w", err)
	}
	b = append(b, '\n')
	if err := atomicWrite(filepath.Join(s.dir, manifestName), b); err != nil {
		return fmt.Errorf("checkpoint: committing manifest: %w", err)
	}
	return nil
}

// readManifest loads and sanity-checks dir's manifest.
func readManifest(dir string) (Manifest, error) {
	var m Manifest
	b, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return m, fmt.Errorf("checkpoint: %w: reading manifest: %v", ErrResumeImpossible, err)
	}
	if err := json.Unmarshal(b, &m); err != nil {
		return m, fmt.Errorf("checkpoint: %w: malformed manifest: %v", ErrResumeImpossible, err)
	}
	if m.Version != manifestVersion {
		return m, fmt.Errorf("checkpoint: %w: manifest version %d, this build writes %d",
			ErrResumeImpossible, m.Version, manifestVersion)
	}
	for i, meta := range m.Segments {
		if meta.Seq != i {
			return m, fmt.Errorf("checkpoint: %w: manifest segment %d carries seq %d", ErrResumeImpossible, i, meta.Seq)
		}
	}
	return m, nil
}

// readSegment loads one segment payload and verifies size and checksum.
func readSegment(dir string, meta SegmentMeta) ([]byte, error) {
	b, err := os.ReadFile(filepath.Join(dir, segmentsDir, meta.File))
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w: segment %s: %v", ErrResumeImpossible, meta.Name, err)
	}
	if int64(len(b)) != meta.Size {
		return nil, fmt.Errorf("checkpoint: %w: segment %s is %d bytes, manifest records %d (truncated write?)",
			ErrResumeImpossible, meta.Name, len(b), meta.Size)
	}
	if got := fmt.Sprintf("%016x", checksum(b)); got != meta.Checksum {
		return nil, fmt.Errorf("checkpoint: %w: segment %s checksum %s, manifest records %s",
			ErrResumeImpossible, meta.Name, got, meta.Checksum)
	}
	return b, nil
}

// clearStale removes the manifest and any segment files from a previous
// run so a fresh Create cannot interleave old and new segments.
func clearStale(dir string) error {
	if err := os.Remove(filepath.Join(dir, manifestName)); err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("checkpoint: clearing stale manifest: %w", err)
	}
	entries, err := os.ReadDir(filepath.Join(dir, segmentsDir))
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	for _, e := range entries {
		if !e.Type().IsRegular() || !strings.HasSuffix(e.Name(), ".seg") {
			continue
		}
		if err := os.Remove(filepath.Join(dir, segmentsDir, e.Name())); err != nil {
			return fmt.Errorf("checkpoint: clearing stale segment: %w", err)
		}
	}
	return nil
}

// validSegmentName keeps segment names path-safe (they become file name
// components).
func validSegmentName(name string) error {
	if name == "" {
		return fmt.Errorf("checkpoint: empty segment name")
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '-', r == '_':
		default:
			return fmt.Errorf("checkpoint: segment name %q contains %q; use lowercase, digits, - and _", name, r)
		}
	}
	return nil
}

// atomicWrite writes data to path via a temporary file in the same
// directory, fsyncing before the rename so the rename never publishes a
// partially-written file, then fsyncs the directory so the rename itself
// is durable.
func atomicWrite(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".tmp-*")
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
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory; filesystems that do not support directory
// sync (some CI overlays) report that as success.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !errors.Is(err, errors.ErrUnsupported) {
		return err
	}
	return nil
}

// checksum is the store's segment hash: FNV-1a over the payload bytes.
func checksum(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

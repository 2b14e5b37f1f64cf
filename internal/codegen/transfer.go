package codegen

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"runtime"
)

// Artifact streaming: a repcutd cluster node that compiled a design (and
// built its native kernel) serves the artifact bytes to peers so the fleet
// pays one plugin build per design. Export hands out the .so plus its
// metadata sidecar after re-verifying the content hash — a node never ships
// bytes it cannot prove intact — and Import installs them on the receiving
// store after the same verification, plus a platform gate: a plugin only
// loads into a binary with the identical toolchain, emitter, and race mode,
// all of which the metadata carries.

// ExportArtifact reads a resident artifact's plugin and metadata bytes for
// streaming to a peer. The bytes are verified against the metadata's
// content hash before export; a corrupted artifact is dropped from the
// store and reported, never shipped.
func (s *Store) ExportArtifact(key string) (so, meta []byte, err error) {
	s.mu.Lock()
	e, ok := s.byKey[key]
	if ok {
		s.lru.MoveToFront(e)
	}
	s.mu.Unlock()
	if !ok {
		return nil, nil, fmt.Errorf("codegen: artifact %s not in store", key)
	}
	meta, err = os.ReadFile(s.metaPath(key))
	if err != nil {
		return nil, nil, fmt.Errorf("codegen: export %s: %w", key, err)
	}
	so, err = os.ReadFile(s.soPath(key))
	if err != nil {
		return nil, nil, fmt.Errorf("codegen: export %s: %w", key, err)
	}
	sum := sha256.Sum256(so)
	if _, err := checkArtifact(key, meta, hex.EncodeToString(sum[:]), int64(len(so))); err != nil {
		s.dropCorrupt(key)
		return nil, nil, err
	}
	return so, meta, nil
}

// ImportArtifact installs artifact bytes built elsewhere, after verifying
// the plugin against the metadata's content hash and the metadata against
// this binary's toolchain. Importing a key the store already holds is a
// no-op. The install is atomic in the same sense build() is: the .so is
// renamed into place first, the meta written last.
func (s *Store) ImportArtifact(key string, so, meta []byte) error {
	sum := sha256.Sum256(so)
	m, err := checkArtifact(key, meta, hex.EncodeToString(sum[:]), int64(len(so)))
	if err != nil {
		return err
	}
	if m.Emitter != EmitterVersion || m.Toolchain != runtime.Version() || m.Race != raceEnabled {
		return fmt.Errorf("codegen: artifact %s built for %s/%s/race=%v, this binary is %s/%s/race=%v",
			key, m.Emitter, m.Toolchain, m.Race, EmitterVersion, runtime.Version(), raceEnabled)
	}
	s.mu.Lock()
	if _, ok := s.byKey[key]; ok {
		s.mu.Unlock()
		return nil
	}
	s.mu.Unlock()

	tmp, err := os.CreateTemp(s.dir, "tmp-import-*")
	if err != nil {
		return fmt.Errorf("codegen: import %s: %w", key, err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(so); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("codegen: import %s: %w", key, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("codegen: import %s: %w", key, err)
	}
	if err := os.Rename(tmpName, s.soPath(key)); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("codegen: import %s: %w", key, err)
	}
	if err := os.WriteFile(s.metaPath(key), meta, 0o644); err != nil {
		os.Remove(s.soPath(key))
		return fmt.Errorf("codegen: import %s: %w", key, err)
	}
	total := int64(len(so)) + int64(len(meta))
	s.mu.Lock()
	if _, ok := s.byKey[key]; !ok {
		e := s.lru.PushFront(&artifact{key: key, bytes: total})
		s.byKey[key] = e
		s.bytes += total
		s.evictLocked(key)
	}
	s.mu.Unlock()
	return nil
}

// Has reports whether the store currently indexes the key.
func (s *Store) Has(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.byKey[key]
	return ok
}

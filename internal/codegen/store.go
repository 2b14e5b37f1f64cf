package codegen

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/sim"
)

// Store is the content-addressed on-disk artifact cache for built native
// kernels. Layout is flat: <dir>/<key>.so plus <dir>/<key>.json (artifact
// metadata including the .so's SHA-256, the corruption detector). Builds
// are singleflighted per key; disk usage is bounded by an LRU byte budget
// (never evicting the newest artifact); a hash mismatch on a hit deletes
// the artifact and rebuilds it. Multiple Stores may point at one dir —
// loaded kernels live in the process-level registry (kernel.go), not in
// the Store.
type Store struct {
	dir    string
	budget int64

	ctx    context.Context
	cancel context.CancelFunc

	mu      sync.Mutex
	bytes   int64
	lru     *list.List // of *artifact; front = most recent
	byKey   map[string]*list.Element
	flights map[string]*buildFlight
	stats   StoreStats
}

// artifact is one on-disk entry.
type artifact struct {
	key   string
	bytes int64 // .so + .json
}

// buildFlight deduplicates concurrent builds of one key.
type buildFlight struct {
	done chan struct{}
	info ArtifactInfo
	err  error
}

// artifactMeta is the sidecar <key>.json.
type artifactMeta struct {
	Key         string  `json:"key"`
	Design      string  `json:"design"`
	Fingerprint string  `json:"fingerprint"`
	Emitter     string  `json:"emitter"`
	Toolchain   string  `json:"toolchain"`
	Race        bool    `json:"race"`
	Bug         int     `json:"bug,omitempty"`
	SoSHA256    string  `json:"so_sha256"`
	SoBytes     int64   `json:"so_bytes"`
	BuildMs     float64 `json:"build_ms"`
	Instrs      int     `json:"instrs"`
	Inlined     int     `json:"inlined_consts"`
	Chunks      int     `json:"chunks"`
}

// ArtifactInfo describes one ensured artifact.
type ArtifactInfo struct {
	Key       string
	Path      string // the .so
	Bytes     int64  // .so + meta
	Built     bool   // built by this call (false: cache hit)
	BuildTime time.Duration
}

// StoreStats is a point-in-time snapshot of store counters.
type StoreStats struct {
	Hits        int64 // artifact present (disk or already loaded)
	Misses      int64 // artifact built
	BuildErrors int64
	Evictions   int64
	Corrupt     int64 // artifacts found corrupted on disk and recovered
	Entries     int
	DiskBytes   int64
	DiskBudget  int64
	Loaded      int // kernels pinned by this process (all stores)
}

// DefaultBudget bounds a Store opened with budget <= 0.
const DefaultBudget = 1 << 30

// Open scans dir (created if missing) and indexes the artifacts already
// there, ordered for eviction by file modification time. Leftover tmp-*
// build directories from crashed processes are removed.
func Open(dir string, budget int64) (*Store, error) {
	if budget <= 0 {
		budget = DefaultBudget
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("codegen: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Store{
		dir: dir, budget: budget,
		ctx: ctx, cancel: cancel,
		lru:   list.New(),
		byKey: map[string]*list.Element{},

		flights: map[string]*buildFlight{},
	}
	if err := s.scan(); err != nil {
		cancel()
		return nil, err
	}
	return s, nil
}

// scan indexes pre-existing artifacts, oldest first so they evict first.
func (s *Store) scan() error {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("codegen: %w", err)
	}
	type found struct {
		key   string
		bytes int64
		mtime time.Time
	}
	var arts []found
	for _, de := range ents {
		name := de.Name()
		switch {
		case de.IsDir() && strings.HasPrefix(name, "tmp-"):
			os.RemoveAll(filepath.Join(s.dir, name))
		case !de.IsDir() && strings.HasPrefix(name, ".load-"):
			// Unlinked-after-open load copies; only a crashed process
			// leaves one behind.
			os.Remove(filepath.Join(s.dir, name))
		case strings.HasSuffix(name, ".json") && !strings.HasPrefix(name, "probe-"):
			key := strings.TrimSuffix(name, ".json")
			metaInfo, err := de.Info()
			if err != nil {
				continue
			}
			soInfo, err := os.Stat(filepath.Join(s.dir, key+".so"))
			if err != nil {
				// Orphaned meta (crashed mid-install): drop it.
				os.Remove(filepath.Join(s.dir, name))
				continue
			}
			arts = append(arts, found{key, metaInfo.Size() + soInfo.Size(), soInfo.ModTime()})
		}
	}
	sort.Slice(arts, func(i, j int) bool { return arts[i].mtime.Before(arts[j].mtime) })
	for _, a := range arts {
		e := s.lru.PushFront(&artifact{key: a.key, bytes: a.bytes})
		s.byKey[a.key] = e
		s.bytes += a.bytes
	}
	return nil
}

// Close cancels in-flight builds. Loaded kernels stay valid (plugins never
// unload).
func (s *Store) Close() { s.cancel() }

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// Stats snapshots the store counters.
func (s *Store) Stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Entries = s.lru.Len()
	st.DiskBytes = s.bytes
	st.DiskBudget = s.budget
	st.Loaded = loadedKernels()
	return st
}

// Kernel returns the loaded native kernel for the program, building the
// artifact if the store does not hold it. The fast path (registry hit) is
// lock-cheap and never touches disk.
func (s *Store) Kernel(p *sim.Program, o EmitOptions) (*Kernel, error) {
	if err := Supported(); err != nil {
		return nil, err
	}
	key := Key(p, o)
	kernelMu.Lock()
	k, ok := kernels[key]
	kernelMu.Unlock()
	if ok {
		s.mu.Lock()
		s.stats.Hits++
		if e, ok := s.byKey[key]; ok {
			s.lru.MoveToFront(e)
		}
		s.mu.Unlock()
		return k, nil
	}
	info, err := s.ensure(p, o, key)
	if err != nil {
		return nil, err
	}
	k, err = loadKernel(key, info.Path, p.Fingerprint())
	if err != nil {
		// A plugin that built but will not load (e.g. truncated by a
		// concurrent writer) is treated as corruption: drop and rebuild
		// once.
		s.dropCorrupt(key)
		info, rerr := s.ensure(p, o, key)
		if rerr != nil {
			return nil, err
		}
		if k, rerr = loadKernel(key, info.Path, p.Fingerprint()); rerr != nil {
			return nil, rerr
		}
		k.Built, k.BuildTime = info.Built, info.BuildTime
		return k, nil
	}
	k.Built, k.BuildTime = info.Built, info.BuildTime
	return k, nil
}

// Ensure guarantees the artifact exists on disk (building it if needed)
// without loading it — the disk-only half of Kernel, also used by tests
// exercising eviction and corruption without pinning plugins.
func (s *Store) Ensure(p *sim.Program, o EmitOptions) (ArtifactInfo, error) {
	if err := Supported(); err != nil {
		return ArtifactInfo{}, err
	}
	return s.ensure(p, o, Key(p, o))
}

func (s *Store) ensure(p *sim.Program, o EmitOptions, key string) (ArtifactInfo, error) {
	for {
		s.mu.Lock()
		if e, ok := s.byKey[key]; ok {
			art := e.Value.(*artifact)
			s.lru.MoveToFront(e)
			s.mu.Unlock()
			// Hashing streams the plugin, so a hit never loads it into
			// memory.
			meta, err := os.ReadFile(s.metaPath(key))
			sum, n, herr := sha256File(s.soPath(key))
			if err = errors.Join(err, herr); err == nil {
				_, err = checkArtifact(key, meta, sum, n)
			}
			if err == nil {
				s.mu.Lock()
				s.stats.Hits++
				s.mu.Unlock()
				return ArtifactInfo{Key: key, Path: s.soPath(key), Bytes: art.bytes}, nil
			}
			// Corrupted on disk: recover by dropping and rebuilding.
			s.dropCorrupt(key)
			continue
		}
		if f, ok := s.flights[key]; ok {
			s.mu.Unlock()
			<-f.done
			if f.err != nil {
				return ArtifactInfo{}, f.err
			}
			// Re-check through the hit path so accounting stays truthful.
			continue
		}
		f := &buildFlight{done: make(chan struct{})}
		s.flights[key] = f
		s.mu.Unlock()

		f.info, f.err = s.build(p, o, key)
		s.mu.Lock()
		delete(s.flights, key)
		if f.err == nil {
			e := s.lru.PushFront(&artifact{key: key, bytes: f.info.Bytes})
			s.byKey[key] = e
			s.bytes += f.info.Bytes
			s.stats.Misses++
			s.evictLocked(key)
		} else {
			s.stats.BuildErrors++
		}
		s.mu.Unlock()
		close(f.done)
		return f.info, f.err
	}
}

// dropCorrupt removes a damaged artifact from the index and disk.
func (s *Store) dropCorrupt(key string) {
	s.mu.Lock()
	if e, ok := s.byKey[key]; ok {
		s.bytes -= e.Value.(*artifact).bytes
		s.lru.Remove(e)
		delete(s.byKey, key)
	}
	s.stats.Corrupt++
	s.mu.Unlock()
	os.Remove(s.soPath(key))
	os.Remove(s.metaPath(key))
}

// build emits, compiles the plugin in a private tmp dir, and atomically
// installs .so then .json (meta last: its presence marks a complete
// artifact).
func (s *Store) build(p *sim.Program, o EmitOptions, key string) (ArtifactInfo, error) {
	start := time.Now()
	em, err := Emit(p, o)
	if err != nil {
		return ArtifactInfo{}, err
	}
	tmp, err := os.MkdirTemp(s.dir, "tmp-"+key+"-")
	if err != nil {
		return ArtifactInfo{}, fmt.Errorf("codegen: %w", err)
	}
	defer os.RemoveAll(tmp)
	builtSo := filepath.Join(tmp, "kernel.so")
	if err := buildPlugin(s.ctx, tmp, em.Source, builtSo, key); err != nil {
		return ArtifactInfo{}, err
	}
	sum, soBytes, err := sha256File(builtSo)
	if err != nil {
		return ArtifactInfo{}, err
	}
	elapsed := time.Since(start)
	meta := artifactMeta{
		Key: key, Design: p.Design,
		Fingerprint: fmt.Sprintf("%016x", p.Fingerprint()),
		Emitter:     EmitterVersion, Toolchain: runtime.Version(), Race: raceEnabled, Bug: int(o.Bug),
		SoSHA256: sum, SoBytes: soBytes,
		BuildMs: float64(elapsed.Microseconds()) / 1000,
		Instrs:  p.TotalInstrs(), Inlined: em.Inlined, Chunks: em.Chunks,
	}
	mdata, err := json.MarshalIndent(&meta, "", "  ")
	if err != nil {
		return ArtifactInfo{}, err
	}
	if err := os.Rename(builtSo, s.soPath(key)); err != nil {
		return ArtifactInfo{}, fmt.Errorf("codegen: %w", err)
	}
	if err := os.WriteFile(s.metaPath(key), mdata, 0o644); err != nil {
		os.Remove(s.soPath(key))
		return ArtifactInfo{}, fmt.Errorf("codegen: %w", err)
	}
	return ArtifactInfo{
		Key: key, Path: s.soPath(key),
		Bytes: soBytes + int64(len(mdata)),
		Built: true, BuildTime: elapsed,
	}, nil
}

// evictLocked trims LRU artifacts past the byte budget, never evicting
// the artifact named keep (the one just installed). Evicting a loaded
// kernel's files is safe: the mapped plugin outlives its unlinked file.
func (s *Store) evictLocked(keep string) {
	for s.bytes > s.budget && s.lru.Len() > 1 {
		e := s.lru.Back()
		art := e.Value.(*artifact)
		if art.key == keep {
			return
		}
		s.lru.Remove(e)
		delete(s.byKey, art.key)
		s.bytes -= art.bytes
		s.stats.Evictions++
		os.Remove(s.soPath(art.key))
		os.Remove(s.metaPath(art.key))
	}
}

func (s *Store) soPath(key string) string   { return filepath.Join(s.dir, key+".so") }
func (s *Store) metaPath(key string) string { return filepath.Join(s.dir, key+".json") }

// checkArtifact is the one integrity check of an artifact: its metadata
// must decode, name the expected key, and carry the plugin's SHA-256 hex
// digest sum and length n. It returns the decoded metadata.
func checkArtifact(key string, meta []byte, sum string, n int64) (*artifactMeta, error) {
	var m artifactMeta
	if err := json.Unmarshal(meta, &m); err != nil {
		return nil, fmt.Errorf("codegen: artifact %s metadata unreadable: %w", key, err)
	}
	if m.Key != key {
		return nil, fmt.Errorf("codegen: artifact metadata names key %s, expected %s", m.Key, key)
	}
	if sum != m.SoSHA256 || n != m.SoBytes {
		return nil, fmt.Errorf("codegen: artifact %s plugin bytes do not match metadata hash", key)
	}
	return &m, nil
}

// sha256File hashes a file, returning the hex digest and byte length.
func sha256File(path string) (string, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", 0, err
	}
	defer f.Close()
	h := sha256.New()
	n, err := io.Copy(h, f)
	if err != nil {
		return "", 0, err
	}
	return hex.EncodeToString(h.Sum(nil)), n, nil
}

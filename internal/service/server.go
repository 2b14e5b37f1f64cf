package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"sync"
	"time"

	"repro/internal/codegen"
	"repro/internal/sim"
)

// Config tunes a Server. The zero value gets sensible defaults.
type Config struct {
	// CacheBytes is the compile cache's resident-byte budget
	// (default 256 MiB).
	CacheBytes int64
	// MaxSessions bounds live sessions; creates beyond it get 429
	// (default 1024).
	MaxSessions int
	// MaxCompiles bounds concurrently executing compiles; misses beyond
	// it get 503 (default NumCPU, min 2).
	MaxCompiles int
	// IdleTimeout reaps sessions with no activity for this long
	// (default 2m; negative disables reaping). The reaper scans every
	// IdleTimeout/4.
	IdleTimeout time.Duration
	// BatchLanes is the session capacity of one lane group: once
	// MinLaneGroup live sessions simulate the same program, later ones share
	// a sim.BatchEngine of this many lanes (default and maximum
	// sim.BatchWidth). Negative or 1 disables batching, and so does 2 to
	// MinLaneGroup-1: a group that can never reach the break-even never pays.
	BatchLanes int
	// Codegen enables the native build-behind tier: every compile-cache
	// miss asynchronously builds (or fetches from the artifact store) a
	// native kernel, and private-engine sessions hot-swap onto it on their
	// next operation. Silently degrades to interpreter-only when the
	// platform cannot build or load plugins (see /metrics codegen.reason).
	Codegen bool
	// CodegenDir is the native artifact store directory (default: a
	// per-user directory under the system temp dir, shared across runs).
	CodegenDir string
	// CodegenBytes is the artifact store's disk byte budget
	// (default 1 GiB).
	CodegenBytes int64
	// Logger receives structured request logs (default slog.Default()).
	Logger *slog.Logger
}

func (c *Config) defaults() {
	if c.CacheBytes == 0 {
		c.CacheBytes = 256 << 20
	}
	if c.MaxSessions == 0 {
		c.MaxSessions = 1024
	}
	if c.MaxCompiles == 0 {
		c.MaxCompiles = max(2, runtime.NumCPU())
	}
	if c.IdleTimeout == 0 {
		c.IdleTimeout = 2 * time.Minute
	}
	if c.BatchLanes == 0 || c.BatchLanes > sim.BatchWidth {
		c.BatchLanes = sim.BatchWidth
	}
	if c.BatchLanes < MinLaneGroup {
		c.BatchLanes = 1 // disabled
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
}

// Server is the repcutd core: compile cache + session manager + HTTP
// surface. Create with New, mount Handler, stop with Shutdown.
type Server struct {
	cfg      Config
	cache    *Cache
	sessions *SessionManager
	m        *Metrics
	log      *slog.Logger
	mux      *http.ServeMux

	cg    *codegenTier // nil unless Config.Codegen is on and supported
	cgErr error        // why the tier is off when Config.Codegen was set

	// compileHook, when set (by the cluster layer), intercepts compile
	// requests before the local cache; clusterMetrics feeds the /metrics
	// cluster section. Both are set once at wiring time, before Handler is
	// served.
	compileHook    CompileHook
	clusterMetrics func() *ClusterMetrics

	reaperStop   chan struct{}
	reaperDone   chan struct{}
	shutdownOnce sync.Once
	shutdownErr  error
}

// New builds a server and starts its idle-session reaper.
func New(cfg Config) *Server {
	cfg.defaults()
	m := NewMetrics()
	s := &Server{
		cfg:        cfg,
		m:          m,
		cache:      NewCache(cfg.CacheBytes, cfg.MaxCompiles, m),
		sessions:   NewSessionManager(cfg.MaxSessions, cfg.IdleTimeout, cfg.BatchLanes, m),
		log:        cfg.Logger,
		mux:        http.NewServeMux(),
		reaperStop: make(chan struct{}),
		reaperDone: make(chan struct{}),
	}
	if cfg.Codegen {
		if tier, err := newCodegenTier(cfg.CodegenDir, cfg.CodegenBytes, m); err != nil {
			s.cgErr = err
			s.log.Warn("native codegen unavailable, running interpreter-only", "err", err)
		} else {
			s.cg = tier
			s.cache.cg = tier
		}
	}
	s.routes()
	go s.reaper()
	return s
}

// RoutedHeader marks a compile request that was already routed once by a
// cluster peer; the receiver must compile locally rather than route again,
// which bounds forwarding at one hop and prevents routing ping-pong when
// peers disagree about ring membership.
const RoutedHeader = "X-Repcut-Routed"

// CompileHook intercepts compile requests before the local cache. The
// cluster layer installs one that routes by consistent hash and fetches
// artifacts from peers; routed reports whether the request already took a
// routing hop (RoutedHeader present), in which case the hook must resolve
// locally.
type CompileHook func(req CompileRequest, routed bool) (*Entry, bool, error)

// SetCompileHook installs the compile interceptor. Call before serving.
func (s *Server) SetCompileHook(h CompileHook) { s.compileHook = h }

// SetClusterMetrics installs the /metrics cluster-section provider. Call
// before serving.
func (s *Server) SetClusterMetrics(f func() *ClusterMetrics) { s.clusterMetrics = f }

// Mount adds a handler to the server's mux (for the cluster layer's
// peer-to-peer endpoints), inside the request-logging wrapper and under the
// same request-body cap as the service's own endpoints: a read past it
// fails with *http.MaxBytesError, which WriteErr answers 413. Call before
// serving.
func (s *Server) Mount(pattern string, h http.HandlerFunc) {
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		r.Body = http.MaxBytesReader(w, r.Body, maxRequestBody)
		h(w, r)
	})
}

// CodegenStore exposes the native artifact store, or nil when the codegen
// tier is off.
func (s *Server) CodegenStore() *codegen.Store {
	if s.cg == nil {
		return nil
	}
	return s.cg.store
}

// Cache exposes the compile cache (for tests and embedding).
func (s *Server) Cache() *Cache { return s.cache }

// Sessions exposes the session manager (for tests and embedding).
func (s *Server) Sessions() *SessionManager { return s.sessions }

// Metrics assembles the full observability snapshot.
func (s *Server) Metrics() MetricsSnapshot {
	snap := s.m.snapshot()
	snap.Cache.Entries = s.cache.Len()
	snap.Cache.Bytes = s.cache.BytesResident()
	snap.Cache.ByteBudget = s.cache.Budget()
	snap.Sessions.Live = s.sessions.Live()
	snap.Sessions.Capacity = s.sessions.Capacity()
	snap.Batch.Groups, snap.Batch.LanesOccupied, snap.Batch.LaneCapacity = s.sessions.BatchStats()
	snap.Batch.LaneWidth = s.cfg.BatchLanes
	if snap.Batch.LaneWidth > 1 && snap.Batch.Runs > 0 {
		snap.Batch.OccupancyRatio = snap.Batch.MeanLanesPerRun / float64(snap.Batch.LaneWidth)
	}
	if s.cg != nil {
		snap.Codegen.Enabled = true
		st := s.cg.store.Stats()
		snap.Codegen.StoreEntries = st.Entries
		snap.Codegen.StoreBytes = st.DiskBytes
		snap.Codegen.StoreBudget = st.DiskBudget
		snap.Codegen.StoreEvictions = st.Evictions
		snap.Codegen.StoreCorrupt = st.Corrupt
		snap.Codegen.KernelsLoaded = st.Loaded
	} else if s.cgErr != nil {
		snap.Codegen.Reason = s.cgErr.Error()
	}
	if s.clusterMetrics != nil {
		snap.Cluster = s.clusterMetrics()
	}
	return snap
}

// Shutdown drains gracefully: in-flight steps finish (bounded by ctx),
// all sessions close, and the reaper stops. The HTTP listener itself is
// the caller's to stop (http.Server.Shutdown) — do that first so no new
// requests arrive mid-drain. Idempotent; repeat calls return the first
// drain's result.
func (s *Server) Shutdown(ctx context.Context) error {
	s.shutdownOnce.Do(func() {
		close(s.reaperStop)
		<-s.reaperDone
		s.shutdownErr = s.sessions.Drain(ctx)
		if s.cg != nil {
			s.cg.close()
		}
	})
	return s.shutdownErr
}

// reaper periodically closes idle sessions.
func (s *Server) reaper() {
	defer close(s.reaperDone)
	every := s.cfg.IdleTimeout / 4
	if every <= 0 {
		every = 30 * time.Second
	}
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-s.reaperStop:
			return
		case now := <-t.C:
			if n := s.sessions.Reap(now); n > 0 {
				s.log.Info("reaped idle sessions", "count", n)
			}
		}
	}
}

// routes mounts the API.
func (s *Server) routes() {
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("POST /v1/compile", s.handleCompile)
	s.mux.HandleFunc("POST /v1/sessions", s.handleCreateSession)
	s.mux.HandleFunc("POST /v1/sessions/restore", s.handleRestore)
	s.mux.HandleFunc("POST /v1/sessions/{id}/checkpoint", s.handleCheckpoint)
	s.mux.HandleFunc("POST /v1/sessions/{id}/poke", s.handlePoke)
	s.mux.HandleFunc("POST /v1/sessions/{id}/peek", s.handlePeek)
	s.mux.HandleFunc("POST /v1/sessions/{id}/step", s.handleStep)
	s.mux.HandleFunc("POST /v1/sessions/{id}/run", s.handleStep)
	s.mux.HandleFunc("POST /v1/sessions/{id}/vcd", s.handleStartVCD)
	s.mux.HandleFunc("GET /v1/sessions/{id}/vcd", s.handleGetVCD)
	s.mux.HandleFunc("POST /v1/sessions/{id}/close", s.handleClose)
	s.mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleClose)
}

// Handler returns the full HTTP surface wrapped in request logging.
func (s *Server) Handler() http.Handler { return s.logRequests(s.mux) }

// statusWriter records the response status for the request log.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(b)
	w.bytes += n
	return n, err
}

// logRequests emits one structured log line per request.
func (s *Server) logRequests(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(sw, r)
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		s.log.Info("request",
			"method", r.Method,
			"path", r.URL.Path,
			"status", sw.status,
			"dur_ms", float64(time.Since(start).Microseconds())/1000,
			"bytes", sw.bytes,
		)
	})
}

// WriteJSON writes a JSON body with the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// WriteErr maps service errors to HTTP statuses: overload conditions get
// 429/503 (the admission-control contract), lookups 404, fingerprint and
// snapshot-version conflicts 409, everything else 400 — compile and simulation failures are
// caused by request content. Every 503 carries Retry-After so clients know
// the condition is transient; a migrated session's 503 additionally carries
// the forwarding address so clients can follow instead of retrying here.
func WriteErr(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	resp := ErrorResponse{Error: err.Error()}
	var mig *MigratedError
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		status = http.StatusRequestEntityTooLarge
	case errors.As(err, &mig):
		status = http.StatusServiceUnavailable
		resp.Peer, resp.SessionID = mig.Peer, mig.SessionID
	case errors.Is(err, ErrSessionLimit):
		status = http.StatusTooManyRequests
	case errors.Is(err, ErrCompileBusy), errors.Is(err, ErrDraining), errors.Is(err, ErrPeerStalled):
		status = http.StatusServiceUnavailable
	case errors.Is(err, ErrNoSession), errors.Is(err, ErrSessionClosed):
		status = http.StatusNotFound
	case errors.Is(err, ErrSnapshotMismatch), errors.Is(err, sim.ErrSnapshotVersion):
		status = http.StatusConflict
	}
	if status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	WriteJSON(w, status, resp)
}

// maxRequestBody caps every request body; a longer one answers 413.
const maxRequestBody = 16 << 20

// maxRunCycles caps the cycles of one step request; a longer one answers
// 400 before any cycle runs.
const maxRunCycles = 1_000_000

// decode reads a bounded JSON request body.
func decode(w http.ResponseWriter, r *http.Request, v any) error {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRequestBody))
	if err != nil {
		return fmt.Errorf("service: read body: %w", err)
	}
	if len(body) == 0 {
		return nil // empty body = all defaults
	}
	if err := json.Unmarshal(body, v); err != nil {
		return fmt.Errorf("service: bad request body: %w", err)
	}
	return nil
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if s.sessions.draining.Load() {
		WriteJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "draining"})
		return
	}
	WriteJSON(w, http.StatusOK, map[string]any{
		"status":     "ok",
		"uptime_sec": time.Since(s.m.start).Seconds(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, s.Metrics())
}

func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) {
	var req CompileRequest
	if err := decode(w, r, &req); err != nil {
		WriteErr(w, err)
		return
	}
	var (
		e   *Entry
		hit bool
		err error
	)
	if s.compileHook != nil {
		e, hit, err = s.compileHook(req, r.Header.Get(RoutedHeader) != "")
	} else {
		e, hit, err = s.cache.GetOrCompile(req)
	}
	if err != nil {
		WriteErr(w, err)
		return
	}
	WriteJSON(w, http.StatusOK, CompileResponse{
		Key:          e.Key,
		CacheHit:     hit,
		CompileMs:    float64(e.CompileTime.Microseconds()) / 1000,
		DesignReport: e.Report(),
	})
}

func (s *Server) handleCreateSession(w http.ResponseWriter, r *http.Request) {
	var req CreateSessionRequest
	if err := decode(w, r, &req); err != nil {
		WriteErr(w, err)
		return
	}
	e, ok := s.cache.Lookup(req.Key)
	if !ok {
		WriteJSON(w, http.StatusNotFound,
			ErrorResponse{Error: "service: unknown key (POST /v1/compile first)"})
		return
	}
	sess, err := s.sessions.Create(e, req.Solo)
	if err != nil {
		WriteErr(w, err)
		return
	}
	WriteJSON(w, http.StatusOK, SessionResponse{
		SessionID: sess.ID, Design: e.Name, Cycle: 0, Batched: sess.Batched(),
	})
}

// handleCheckpoint serializes a session's simulation state without
// disturbing it. The response restores on this server or any peer whose
// cache holds the same key.
func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	var resp CheckpointResponse
	err := s.sessions.Do(r.PathValue("id"), func(sess *Session) error {
		snap, err := sess.Checkpoint()
		if err != nil {
			return err
		}
		hash := sess.StateHash()
		resp = CheckpointResponse{
			SessionID:   sess.ID,
			Key:         sess.Key,
			Cycle:       snap.Cycles,
			Version:     sim.SnapshotVersion,
			Fingerprint: fmt.Sprintf("%016x", snap.Fingerprint),
			StateHash:   fmt.Sprintf("%016x", hash),
			State:       snap.Encode(),
		}
		resp.Design = sess.entry.Name
		return nil
	})
	if err != nil {
		WriteErr(w, err)
		return
	}
	s.m.sessionsCheckpointed.Add(1)
	WriteJSON(w, http.StatusOK, resp)
}

// handleRestore opens a session resuming from a checkpoint.
func (s *Server) handleRestore(w http.ResponseWriter, r *http.Request) {
	var req RestoreSessionRequest
	if err := decode(w, r, &req); err != nil {
		WriteErr(w, err)
		return
	}
	snap, err := sim.DecodeSnapshot(req.State)
	if err != nil {
		WriteErr(w, err)
		return
	}
	e, ok := s.cache.Lookup(req.Key)
	if !ok {
		WriteJSON(w, http.StatusNotFound,
			ErrorResponse{Error: "service: unknown key (POST /v1/compile first)"})
		return
	}
	sess, err := s.sessions.Restore(e, snap, req.Solo)
	if err != nil {
		WriteErr(w, err)
		return
	}
	WriteJSON(w, http.StatusOK, SessionResponse{
		SessionID: sess.ID, Design: e.Name, Cycle: sess.Cycles(), Batched: sess.Batched(),
	})
}

func (s *Server) handlePoke(w http.ResponseWriter, r *http.Request) {
	var req PokeRequest
	if err := decode(w, r, &req); err != nil {
		WriteErr(w, err)
		return
	}
	err := s.sessions.Do(r.PathValue("id"), func(sess *Session) error {
		return sess.Poke(req.Name, req.Value)
	})
	if err != nil {
		WriteErr(w, err)
		return
	}
	WriteJSON(w, http.StatusOK, ValueResponse{Name: req.Name, Value: req.Value})
}

func (s *Server) handlePeek(w http.ResponseWriter, r *http.Request) {
	var req PeekRequest
	if err := decode(w, r, &req); err != nil {
		WriteErr(w, err)
		return
	}
	var v uint64
	err := s.sessions.Do(r.PathValue("id"), func(sess *Session) error {
		if req.Reg {
			bv, err := sess.PeekReg(req.Name)
			if err != nil {
				return err
			}
			if bv.Width > 64 {
				return fmt.Errorf("service: register %q is %d bits wide (>64)", req.Name, bv.Width)
			}
			v = bv.Uint64()
			return nil
		}
		var err error
		v, err = sess.PeekOutput(req.Name)
		return err
	})
	if err != nil {
		WriteErr(w, err)
		return
	}
	WriteJSON(w, http.StatusOK, ValueResponse{Name: req.Name, Value: v})
}

func (s *Server) handleStep(w http.ResponseWriter, r *http.Request) {
	var req StepRequest
	if err := decode(w, r, &req); err != nil {
		WriteErr(w, err)
		return
	}
	n := req.Cycles
	if n <= 0 {
		n = 1
	}
	var resp StepResponse
	err := s.sessions.Do(r.PathValue("id"), func(sess *Session) error {
		if err := checkPeek(sess.entry.Compiled.Program, req.Peek); err != nil {
			return err
		}
		// Carried pokes apply first and whatever happens to the step, so
		// every outcome equals one poke request per entry followed by this
		// step.
		for _, p := range req.Pokes {
			if err := sess.Poke(p.Name, p.Value); err != nil {
				return err
			}
		}
		if n > maxRunCycles {
			return fmt.Errorf("service: cycles=%d exceeds the per-request cycle cap %d", n, maxRunCycles)
		}
		start := time.Now()
		resp.Cycle = sess.Run(n)
		s.m.stepLat.Observe(time.Since(start))
		s.m.stepsTotal.Add(1)
		s.m.cyclesTotal.Add(int64(n))
		if len(req.Peek) == 0 {
			return nil
		}
		resp.Outputs = make([]ValueResponse, len(req.Peek))
		for i, name := range req.Peek {
			v, err := sess.PeekOutput(name)
			if err != nil {
				return err
			}
			resp.Outputs[i] = ValueResponse{Name: name, Value: v}
		}
		s.m.stepsWithOutputs.Add(1)
		return nil
	})
	if err != nil {
		WriteErr(w, err)
		return
	}
	WriteJSON(w, http.StatusOK, resp)
}

// checkPeek admits a step's peek list before anything runs: every name is a
// narrow output of p, named once, so a step answers at most one value per
// output however large its body.
func checkPeek(p *sim.Program, names []string) error {
	if len(names) > len(p.Outputs) {
		return fmt.Errorf("service: peek names %d outputs; the program has %d", len(names), len(p.Outputs))
	}
	seen := make(map[string]bool, len(names))
	for _, name := range names {
		ps, ok := p.Output(name)
		switch {
		case !ok:
			return fmt.Errorf("service: peek: no output %q", name)
		case ps.Width > 64:
			return fmt.Errorf("service: peek: output %q is %d bits wide (>64)", name, ps.Width)
		case seen[name]:
			return fmt.Errorf("service: peek names output %q twice", name)
		}
		seen[name] = true
	}
	return nil
}

// handleStartVCD begins waveform capture; a batched session spills to a
// private engine first, since the VCD writer samples cycle by cycle.
func (s *Server) handleStartVCD(w http.ResponseWriter, r *http.Request) {
	var resp SessionResponse
	err := s.sessions.Do(r.PathValue("id"), func(sess *Session) error {
		if err := sess.StartVCD(s.sessions); err != nil {
			return err
		}
		resp = SessionResponse{
			SessionID: sess.ID, Cycle: sess.Cycles(), Batched: sess.Batched(),
		}
		return nil
	})
	if err != nil {
		WriteErr(w, err)
		return
	}
	WriteJSON(w, http.StatusOK, resp)
}

// handleGetVCD streams the capture accumulated so far.
func (s *Server) handleGetVCD(w http.ResponseWriter, r *http.Request) {
	var dump []byte
	err := s.sessions.Do(r.PathValue("id"), func(sess *Session) error {
		var e2 error
		dump, e2 = sess.VCD()
		return e2
	})
	if err != nil {
		WriteErr(w, err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(dump)
}

func (s *Server) handleClose(w http.ResponseWriter, r *http.Request) {
	sess, err := s.sessions.Close(r.PathValue("id"))
	if err != nil {
		WriteErr(w, err)
		return
	}
	WriteJSON(w, http.StatusOK, StepResponse{Cycle: sess.Cycles()})
}

package cluster

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"slices"
	"sync/atomic"
	"time"

	repcut "repro"
	"repro/internal/cgraph"
	"repro/internal/codegen"
	"repro/internal/service"
	"repro/internal/sim"
)

// ShaHeader carries the SHA-256 of an artifact response body, so a fetching
// node detects corruption in transit before attempting to decode anything.
const ShaHeader = "X-Repcut-Sha256"

// Config wires one cluster node.
type Config struct {
	// Service configures the underlying repcutd server.
	Service service.Config
	// Self is this node's advertised address (host:port), as it appears in
	// every node's peer list.
	Self string
	// Peers is the fleet's static membership (Self is added if absent).
	// All nodes must be configured with the same set.
	Peers []string
	// FetchTimeout bounds each peer artifact/compile fetch (default 5s). A
	// peer that stalls past it sheds the request with 503 + Retry-After; a
	// peer that is dead (connection refused) falls back to local compile.
	FetchTimeout time.Duration
}

// Node is one member of a repcutd fleet: a service.Server plus the routing,
// artifact-exchange, and migration glue.
type Node struct {
	cfg  Config
	srv  *service.Server
	ring *Ring
	// fetch is the latency-sensitive peer client (artifact and routed
	// compile fetches), bounded by FetchTimeout; peer is the patient one
	// for migration traffic, whose snapshots can be large.
	fetch *http.Client
	peer  *http.Client

	compilesLocal   atomic.Int64
	compilesRouted  atomic.Int64
	artifactFetches atomic.Int64
	fetchFallbacks  atomic.Int64
	fetchTimeouts   atomic.Int64
	fetchCorrupt    atomic.Int64
	artifactsServed atomic.Int64
	nativeFetches   atomic.Int64
	migratedOut     atomic.Int64
	migratedIn      atomic.Int64
}

// New builds a node: the underlying server plus the cluster hooks (compile
// routing, artifact endpoints, migration receiver).
func New(cfg Config) (*Node, error) {
	if cfg.Self == "" {
		return nil, fmt.Errorf("cluster: Config.Self is required")
	}
	peers := cfg.Peers
	if !slices.Contains(peers, cfg.Self) {
		peers = append(append([]string{}, peers...), cfg.Self)
	}
	ring, err := NewRing(peers)
	if err != nil {
		return nil, err
	}
	if cfg.FetchTimeout <= 0 {
		cfg.FetchTimeout = 5 * time.Second
	}
	n := &Node{
		cfg:   cfg,
		ring:  ring,
		fetch: &http.Client{Timeout: cfg.FetchTimeout},
		peer:  &http.Client{Timeout: 10 * cfg.FetchTimeout},
	}
	n.srv = service.New(cfg.Service)
	n.srv.SetCompileHook(n.compileHook)
	n.srv.SetClusterMetrics(n.clusterMetrics)
	n.srv.Mount("GET /v1/artifacts/{key}", n.handleArtifact)
	n.srv.Mount("GET /v1/artifacts/{key}/native", n.handleNativeArtifact)
	n.srv.Mount("POST /v1/cluster/restore", n.handleMigrateIn)
	return n, nil
}

// Server exposes the underlying service server.
func (n *Node) Server() *service.Server { return n.srv }

// Handler returns the node's full HTTP surface.
func (n *Node) Handler() http.Handler { return n.srv.Handler() }

// Ring exposes the node's view of the consistent-hash ring.
func (n *Node) Ring() *Ring { return n.ring }

// Self returns the node's advertised address.
func (n *Node) Self() string { return n.cfg.Self }

// Shutdown migrates every live session to peers, then drains the service.
// The HTTP listener must stay up until this returns: the node keeps serving
// /v1/artifacts to peers pulling its designs, and keeps answering its old
// sessions' requests with forwarding addresses.
func (n *Node) Shutdown(ctx context.Context) (moved int, err error) {
	moved, merr := n.DrainMigrate(ctx)
	serr := n.srv.Shutdown(ctx)
	if merr != nil {
		return moved, merr
	}
	return moved, serr
}

// compileHook routes compile misses by consistent hash: the key's owner
// compiles, everyone else fetches the compiled artifact from it. A request
// that already took its one routing hop (routed), a key this node owns, and
// a single-node fleet all resolve locally. Peer faults degrade, never fail:
// a dead owner falls back to local compile; only a stalled owner sheds the
// request (503 + Retry-After) so a wedged peer cannot hold requests open.
func (n *Node) compileHook(req service.CompileRequest, routed bool) (*service.Entry, bool, error) {
	key := req.Key()
	if e, ok := n.srv.Cache().Lookup(key); ok {
		return e, true, nil
	}
	owner := n.ring.Owner(key)
	if routed || owner == n.cfg.Self || len(n.ring.Peers()) == 1 {
		n.compilesLocal.Add(1)
		return n.srv.Cache().GetOrCompile(req)
	}
	e, err := n.routeCompile(owner, req, key)
	if err == nil {
		n.compilesRouted.Add(1)
		return e, false, nil
	}
	if isTimeout(err) {
		n.fetchTimeouts.Add(1)
		return nil, false, fmt.Errorf("%w: %s owns %s: %v",
			service.ErrPeerStalled, owner, short(key), err)
	}
	n.fetchFallbacks.Add(1)
	n.compilesLocal.Add(1)
	return n.srv.Cache().GetOrCompile(req)
}

// routeCompile asks the owning peer to compile (one hop, marked routed so
// the peer must resolve locally), then fetches the artifact.
func (n *Node) routeCompile(owner string, req service.CompileRequest, key string) (*service.Entry, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	hreq, err := http.NewRequest(http.MethodPost, "http://"+owner+"/v1/compile", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set(service.RoutedHeader, "1")
	resp, err := n.fetch.Do(hreq)
	if err != nil {
		return nil, err
	}
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("cluster: peer %s compile: HTTP %d: %s", owner, resp.StatusCode, msg)
	}
	return n.fetchArtifact(owner, key)
}

// fetchArtifact pulls a compiled artifact from a peer and installs it in
// the local cache. A body failing its content hash is refetched once (a
// transient corruption) before giving up; the decoded program additionally
// proves its own fingerprint, so no mangled artifact can install.
func (n *Node) fetchArtifact(addr, key string) (*service.Entry, error) {
	blob, err := n.getArtifactBlob(addr, key)
	var cerr *corruptError
	if errors.As(err, &cerr) {
		n.fetchCorrupt.Add(1)
		blob, err = n.getArtifactBlob(addr, key)
	}
	if err != nil {
		return nil, err
	}
	e, err := decodeArtifact(blob)
	if err != nil {
		return nil, err
	}
	if e.Key != key {
		return nil, fmt.Errorf("cluster: peer %s served artifact %s for key %s", addr, short(e.Key), short(key))
	}
	// Pull the native plugin (if the peer built one for our platform)
	// before installing, so the install's build-behind finds it warm
	// instead of rebuilding.
	n.prefetchNative(addr, key, e)
	n.artifactFetches.Add(1)
	return n.srv.Cache().Install(e), nil
}

// getArtifactBlob GETs one artifact body and verifies it against the
// response's content-hash header.
func (n *Node) getArtifactBlob(addr, key string) ([]byte, error) {
	resp, err := n.fetch.Get("http://" + addr + "/v1/artifacts/" + key)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<30))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("cluster: peer %s artifact %s: HTTP %d", addr, short(key), resp.StatusCode)
	}
	sum := sha256.Sum256(data)
	if want := resp.Header.Get(ShaHeader); want == "" || hex.EncodeToString(sum[:]) != want {
		return nil, &corruptError{addr: addr, key: key}
	}
	return data, nil
}

// corruptError marks an artifact body that failed its content hash —
// worth one refetch, unlike transport errors.
type corruptError struct{ addr, key string }

func (e *corruptError) Error() string {
	return fmt.Sprintf("cluster: artifact %s from %s does not match its content hash", short(e.key), e.addr)
}

// prefetchNative pulls the peer's native plugin for an artifact, when both
// sides run the codegen tier and the peer already built one matching this
// binary's platform. Failure is silent: the local build-behind covers it.
func (n *Node) prefetchNative(addr, key string, e *service.Entry) {
	store := n.srv.CodegenStore()
	if store == nil {
		return
	}
	ck := codegen.Key(e.Compiled.Program, codegen.EmitOptions{})
	if store.Has(ck) {
		return
	}
	resp, err := n.fetch.Get("http://" + addr + "/v1/artifacts/" + key + "/native")
	if err != nil {
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
		return
	}
	var nw nativeWire
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<30)).Decode(&nw); err != nil {
		return
	}
	if nw.Key != ck {
		return // built for a different toolchain/platform
	}
	if err := store.ImportArtifact(ck, nw.So, nw.Meta); err != nil {
		return
	}
	n.nativeFetches.Add(1)
}

// artifactWire is the gob envelope of one compiled artifact: everything a
// peer needs to reconstruct a cache entry without recompiling.
type artifactWire struct {
	Key       string
	Name      string
	Stats     cgraph.Stats
	Report    *repcut.PartitionReport
	Validated bool
	Program   []byte // sim.EncodeProgram
}

// nativeWire is the JSON envelope of one native plugin artifact. Key is
// the codegen store key (platform-qualified), not the compile cache key.
type nativeWire struct {
	Key  string `json:"key"`
	So   []byte `json:"so"`
	Meta []byte `json:"meta"`
}

// encodeArtifact serializes a cache entry for peer transfer.
func encodeArtifact(e *service.Entry) ([]byte, error) {
	pb, err := sim.EncodeProgram(e.Compiled.Program)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	w := artifactWire{
		Key: e.Key, Name: e.Name, Stats: e.Stats,
		Report: e.Compiled.Report, Validated: e.Validated, Program: pb,
	}
	if err := gob.NewEncoder(&buf).Encode(w); err != nil {
		return nil, fmt.Errorf("cluster: encode artifact: %w", err)
	}
	return buf.Bytes(), nil
}

// decodeArtifact reverses encodeArtifact into an installable cache entry.
func decodeArtifact(blob []byte) (*service.Entry, error) {
	var w artifactWire
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&w); err != nil {
		return nil, fmt.Errorf("cluster: decode artifact: %w", err)
	}
	p, err := sim.DecodeProgram(w.Program)
	if err != nil {
		return nil, err
	}
	e := &service.Entry{
		Key:  w.Key,
		Name: w.Name,
		Compiled: &repcut.Compiled{
			Program: p, Report: w.Report,
		},
		Stats:       w.Stats,
		Fingerprint: p.Fingerprint(),
		Bytes:       p.MemBytes(),
		Validated:   w.Validated,
	}
	return e, nil
}

// handleArtifact serves a compiled artifact to a peer.
func (n *Node) handleArtifact(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	e, ok := n.srv.Cache().Lookup(key)
	if !ok {
		service.WriteJSON(w, http.StatusNotFound, service.ErrorResponse{Error: "cluster: artifact not resident"})
		return
	}
	blob, err := encodeArtifact(e)
	if err != nil {
		service.WriteJSON(w, http.StatusInternalServerError, service.ErrorResponse{Error: err.Error()})
		return
	}
	sum := sha256.Sum256(blob)
	w.Header().Set(ShaHeader, hex.EncodeToString(sum[:]))
	w.Header().Set("Content-Type", "application/octet-stream")
	_, _ = w.Write(blob)
	n.artifactsServed.Add(1)
}

// handleNativeArtifact serves the native plugin built for a compiled
// artifact, when the codegen tier holds one.
func (n *Node) handleNativeArtifact(w http.ResponseWriter, r *http.Request) {
	store := n.srv.CodegenStore()
	if store == nil {
		service.WriteJSON(w, http.StatusNotFound, service.ErrorResponse{Error: "cluster: native codegen disabled"})
		return
	}
	e, ok := n.srv.Cache().Lookup(r.PathValue("key"))
	if !ok {
		service.WriteJSON(w, http.StatusNotFound, service.ErrorResponse{Error: "cluster: artifact not resident"})
		return
	}
	ck := codegen.Key(e.Compiled.Program, codegen.EmitOptions{})
	so, meta, err := store.ExportArtifact(ck)
	if err != nil {
		service.WriteJSON(w, http.StatusNotFound, service.ErrorResponse{Error: "cluster: native artifact not built"})
		return
	}
	service.WriteJSON(w, http.StatusOK, nativeWire{Key: ck, So: so, Meta: meta})
}

// migrateWire is one migrating session: its design key, serialized state,
// and the sender's address — the artifact source if the receiver has never
// seen the key.
type migrateWire struct {
	Key    string `json:"key"`
	State  []byte `json:"state"`
	Origin string `json:"origin,omitempty"`
}

// DrainMigrate checkpoints every live session and ships each to a peer —
// the key's ring successors, in order — leaving forwarding addresses behind
// for the sessions' clients. Returns how many sessions moved.
func (n *Node) DrainMigrate(ctx context.Context) (int, error) {
	return n.srv.Sessions().DrainMigrate(ctx, func(s *service.Session, snap *sim.Snapshot) (string, string, error) {
		state := snap.Encode()
		targets := n.ring.Successors(s.Key, n.cfg.Self)
		var lastErr error = fmt.Errorf("cluster: no migration targets for session %s", s.ID)
		for _, peer := range targets {
			newID, err := n.migrateTo(peer, s.Key, state)
			if err == nil {
				n.migratedOut.Add(1)
				return peer, newID, nil
			}
			lastErr = err
		}
		return "", "", lastErr
	})
}

// migrateTo restores one session's snapshot on a peer, returning the new
// session ID there.
func (n *Node) migrateTo(peer, key string, state []byte) (string, error) {
	body, err := json.Marshal(migrateWire{Key: key, State: state, Origin: n.cfg.Self})
	if err != nil {
		return "", err
	}
	resp, err := n.peer.Post("http://"+peer+"/v1/cluster/restore", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("cluster: peer %s restore: HTTP %d: %s", peer, resp.StatusCode, data)
	}
	var sr service.SessionResponse
	if err := json.Unmarshal(data, &sr); err != nil {
		return "", err
	}
	return sr.SessionID, nil
}

// handleMigrateIn receives a migrating session: if the design is unknown
// here, the artifact is fetched from the sender first (a draining node
// keeps serving /v1/artifacts), then the snapshot restores into a fresh
// session.
func (n *Node) handleMigrateIn(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		service.WriteErr(w, err)
		return
	}
	var req migrateWire
	if err := json.Unmarshal(body, &req); err != nil {
		service.WriteErr(w, fmt.Errorf("cluster: bad migrate body: %w", err))
		return
	}
	e, ok := n.srv.Cache().Lookup(req.Key)
	if !ok {
		if req.Origin == "" {
			service.WriteJSON(w, http.StatusNotFound, service.ErrorResponse{Error: "cluster: unknown key and no origin to fetch from"})
			return
		}
		var ferr error
		e, ferr = n.fetchArtifact(req.Origin, req.Key)
		if ferr != nil {
			service.WriteJSON(w, http.StatusNotFound, service.ErrorResponse{Error: "cluster: fetch artifact for migration: " + ferr.Error()})
			return
		}
	}
	snap, err := sim.DecodeSnapshot(req.State)
	if err != nil {
		service.WriteErr(w, err)
		return
	}
	sess, err := n.srv.Sessions().Restore(e, snap, false)
	if err != nil {
		service.WriteErr(w, err)
		return
	}
	n.migratedIn.Add(1)
	service.WriteJSON(w, http.StatusOK, service.SessionResponse{
		SessionID: sess.ID, Design: e.Name, Cycle: sess.Cycles(), Batched: sess.Batched(),
	})
}

// clusterMetrics renders the node's counters for /metrics.
func (n *Node) clusterMetrics() *service.ClusterMetrics {
	return &service.ClusterMetrics{
		Enabled:                true,
		Self:                   n.cfg.Self,
		Peers:                  n.ring.Peers(),
		CompilesLocal:          n.compilesLocal.Load(),
		CompilesRouted:         n.compilesRouted.Load(),
		ArtifactFetches:        n.artifactFetches.Load(),
		ArtifactFetchFallbacks: n.fetchFallbacks.Load(),
		ArtifactFetchTimeouts:  n.fetchTimeouts.Load(),
		ArtifactFetchCorrupt:   n.fetchCorrupt.Load(),
		ArtifactsServed:        n.artifactsServed.Load(),
		NativeFetches:          n.nativeFetches.Load(),
		SessionsMigratedOut:    n.migratedOut.Load(),
		SessionsMigratedIn:     n.migratedIn.Load(),
	}
}

// isTimeout reports whether a peer fetch failed by exhausting its time
// budget — the "stalled peer" class, shed with 503 — as opposed to failing
// fast (dead peer), which falls back to local compile.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

func short(key string) string {
	if len(key) > 12 {
		return key[:12]
	}
	return key
}

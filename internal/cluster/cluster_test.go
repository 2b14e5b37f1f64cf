package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster/clustertest"
	"repro/internal/service"
)

func startFleet(t *testing.T, nodes int, fetchTimeout time.Duration) *clustertest.Fleet {
	t.Helper()
	f, err := clustertest.Start(clustertest.Options{
		Nodes:        nodes,
		FetchTimeout: fetchTimeout,
		Service:      service.Config{BatchLanes: service.MinLaneGroup},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	return f
}

// openCoTenants opens the service.MinLaneGroup-1 idle default-placement
// sessions after which a node puts the key's sessions, created or
// restored, on batch lanes.
func openCoTenants(t *testing.T, c *service.Client, key string) []*service.SessionHandle {
	t.Helper()
	var hs []*service.SessionHandle
	for i := 1; i < service.MinLaneGroup; i++ {
		h, err := c.NewSession(key)
		if err != nil {
			t.Fatal(err)
		}
		if h.Batched {
			t.Fatalf("co-tenant %d batched below the break-even", i)
		}
		hs = append(hs, h)
	}
	return hs
}

// migratedOntoLanes fails unless every session the peers restored from a
// migration landed on a batch lane.
func migratedOntoLanes(t *testing.T, f *clustertest.Fleet, peers ...int) {
	t.Helper()
	var in, batched int64
	for _, i := range peers {
		m, err := f.Client(i).Metrics()
		if err != nil {
			t.Fatal(err)
		}
		in += m.Cluster.SessionsMigratedIn
		batched += m.Batch.SessionsBatched
	}
	if in == 0 || batched != in {
		t.Fatalf("peers restored %d migrated sessions, %d of them on batch lanes", in, batched)
	}
}

func compileReq(design string, seed int64) service.CompileRequest {
	return service.CompileRequest{Design: design, Scale: 0.25, Threads: 2, Seed: seed}
}

// ownerOf returns the fleet indices of the peer owning the request's key
// and of one non-owner.
func ownerOf(t *testing.T, f *clustertest.Fleet, r service.CompileRequest) (owner, other int) {
	t.Helper()
	addr := f.Nodes[0].Ring().Owner(r.Key())
	owner = -1
	for i, a := range f.Addrs {
		if a == addr {
			owner = i
		}
	}
	if owner < 0 {
		t.Fatalf("ring owner %s is not a fleet member %v", addr, f.Addrs)
	}
	other = (owner + 1) % len(f.Addrs)
	return owner, other
}

// pokeInputs drives every narrow input with rng-derived values; two
// sessions poked from equal-seeded rngs receive identical stimulus.
func pokeInputs(t *testing.T, s *service.SessionHandle, inputs []service.PortInfo, rng *rand.Rand) {
	t.Helper()
	for _, in := range inputs {
		if in.Wide {
			continue
		}
		v := rng.Uint64()
		if in.Width < 64 {
			v &= (uint64(1) << uint(in.Width)) - 1
		}
		if err := s.Poke(in.Name, v); err != nil {
			t.Fatalf("poke %s: %v", in.Name, err)
		}
	}
}

// TestClusterCompileOnce: a 3-node fleet serving 2 designs through every
// node compiles each design exactly once fleet-wide; at least 2/3 of the
// cold requests resolve by peer artifact fetch instead of a compile.
func TestClusterCompileOnce(t *testing.T) {
	f := startFleet(t, 3, 0)
	reqs := []service.CompileRequest{
		compileReq("RocketChip-1C", 1),
		compileReq("SmallBOOM-1C", 1),
	}
	for _, r := range reqs {
		for i := range f.Nodes {
			resp, err := f.Client(i).Compile(r)
			if err != nil {
				t.Fatalf("compile %s via node %d: %v", r.Design, i, err)
			}
			if resp.Key != r.Key() {
				t.Fatalf("node %d returned key %s, want %s", i, resp.Key, r.Key())
			}
		}
	}
	var misses, fetches, served int64
	for i := range f.Nodes {
		m, err := f.Client(i).Metrics()
		if err != nil {
			t.Fatal(err)
		}
		if m.Cluster == nil || !m.Cluster.Enabled {
			t.Fatalf("node %d reports no cluster metrics", i)
		}
		misses += m.Cache.Misses
		fetches += m.Cluster.ArtifactFetches
		served += m.Cluster.ArtifactsServed
	}
	if misses != int64(len(reqs)) {
		t.Fatalf("fleet compiled %d times for %d designs — not compile-once", misses, len(reqs))
	}
	// 6 cold requests: 2 compiles on owners, 4 peer fetches = 2/3 hit rate.
	if want := int64(2 * len(reqs)); fetches != want {
		t.Fatalf("fleet made %d artifact fetches, want %d (fetch rate 2/3)", fetches, want)
	}
	if served != fetches {
		t.Fatalf("fleet served %d artifacts but fetched %d", served, fetches)
	}
}

// TestClusterCheckpointRestore: checkpoint on one node, restore on another,
// state hash and cycle count carry over exactly, and both sessions evolve
// identically under shared stimulus afterwards. Co-tenants on both nodes
// make it a checkpoint from a batch lane restored into one.
func TestClusterCheckpointRestore(t *testing.T) {
	f := startFleet(t, 2, 0)
	r := compileReq("RocketChip-1C", 2)
	c0, c1 := f.Client(0), f.Client(1)
	resp, err := c0.Compile(r)
	if err != nil {
		t.Fatal(err)
	}
	openCoTenants(t, c0, resp.Key)
	sA, err := c0.NewSession(resp.Key)
	if err != nil {
		t.Fatal(err)
	}
	if !sA.Batched {
		t.Fatal("session past the break-even not batched")
	}
	rngA := rand.New(rand.NewSource(7))
	for step := 0; step < 4; step++ {
		pokeInputs(t, sA, resp.Inputs, rngA)
		if _, err := sA.Run(2); err != nil {
			t.Fatal(err)
		}
	}
	cpA, err := sA.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if cpA.Cycle != 8 {
		t.Fatalf("checkpoint at cycle %d, want 8", cpA.Cycle)
	}
	if len(cpA.State) == 0 || cpA.StateHash == "" {
		t.Fatal("checkpoint carries no state")
	}
	// Node 1 learns the design via peer artifact fetch, then restores.
	if _, err := c1.Compile(r); err != nil {
		t.Fatal(err)
	}
	openCoTenants(t, c1, resp.Key)
	sB, err := c1.RestoreSession(resp.Key, cpA.State, false)
	if err != nil {
		t.Fatalf("restore on peer: %v", err)
	}
	if !sB.Batched {
		t.Fatal("restore past the break-even not batched")
	}
	cpB, err := sB.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if cpB.Cycle != cpA.Cycle || cpB.StateHash != cpA.StateHash {
		t.Fatalf("restored session diverges: cycle %d hash %s, want cycle %d hash %s",
			cpB.Cycle, cpB.StateHash, cpA.Cycle, cpA.StateHash)
	}
	// Shared stimulus from here: the original and the restored copy must
	// stay bit-identical.
	rng1 := rand.New(rand.NewSource(9))
	rng2 := rand.New(rand.NewSource(9))
	for step := 0; step < 3; step++ {
		pokeInputs(t, sA, resp.Inputs, rng1)
		pokeInputs(t, sB, resp.Inputs, rng2)
		if _, err := sA.Run(3); err != nil {
			t.Fatal(err)
		}
		if _, err := sB.Run(3); err != nil {
			t.Fatal(err)
		}
	}
	cpA2, err := sA.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	cpB2, err := sB.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if cpA2.StateHash != cpB2.StateHash || cpA2.Cycle != cpB2.Cycle {
		t.Fatalf("post-restore evolution diverged: %s@%d vs %s@%d",
			cpA2.StateHash, cpA2.Cycle, cpB2.StateHash, cpB2.Cycle)
	}
	// A snapshot for a different design is rejected with 409.
	r2 := compileReq("SmallBOOM-1C", 2)
	resp2, err := c0.Compile(r2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c0.RestoreSession(resp2.Key, cpA.State, false); service.StatusOf(err) != http.StatusConflict {
		t.Fatalf("cross-design restore: got %v, want HTTP 409", err)
	}
}

// TestClusterDrainMigration: draining a node moves every session to a peer
// with zero simulated-cycle loss — the migrated state hash matches both the
// pre-drain checkpoint and an uninterrupted control run — and the drained
// node leaves a followable forwarding address behind.
func TestClusterDrainMigration(t *testing.T) {
	f := startFleet(t, 3, 0)
	r := compileReq("RocketChip-1C", 3)
	resp, err := f.Client(0).Compile(r)
	if err != nil {
		t.Fatal(err)
	}
	// Lane sessions at both ends: co-tenants on node 0 (closed again before
	// the drain, so only the sessions under test move) and on the node the
	// drain ships the key's sessions to.
	target := -1
	succ := f.Nodes[0].Ring().Successors(resp.Key, f.Addrs[0])[0]
	for i, a := range f.Addrs {
		if a == succ {
			target = i
		}
	}
	if _, err := f.Client(target).Compile(r); err != nil {
		t.Fatal(err)
	}
	openCoTenants(t, f.Client(target), resp.Key)
	local := openCoTenants(t, f.Client(0), resp.Key)
	const nSessions = 3
	handles := make([]*service.SessionHandle, nSessions)
	oldIDs := make([]string, nSessions)
	pre := make([]*service.CheckpointResponse, nSessions)
	for i := range handles {
		h, err := f.Client(0).NewSession(resp.Key)
		if err != nil {
			t.Fatal(err)
		}
		if !h.Batched {
			t.Fatalf("session %d past the break-even not batched", i)
		}
		handles[i] = h
		oldIDs[i] = h.ID
		rng := rand.New(rand.NewSource(int64(100 + i)))
		for step := 0; step < 3; step++ {
			pokeInputs(t, h, resp.Inputs, rng)
			if _, err := h.Run(2); err != nil {
				t.Fatal(err)
			}
		}
		pre[i], err = h.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, h := range local {
		if _, err := h.Close(); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	moved, err := f.Nodes[0].DrainMigrate(ctx)
	if err != nil {
		t.Fatalf("drain-migrate: %v", err)
	}
	if moved != nSessions {
		t.Fatalf("migrated %d sessions, want %d", moved, nSessions)
	}
	migratedOntoLanes(t, f, 1, 2)
	// The drained node answers the old IDs with 503 + Retry-After and the
	// forwarding address.
	for i, id := range oldIDs {
		hr, err := http.Post(f.URL(0)+"/v1/sessions/"+id+"/run", "application/json",
			bytes.NewReader([]byte(`{"cycles":1}`)))
		if err != nil {
			t.Fatal(err)
		}
		var er service.ErrorResponse
		body := json.NewDecoder(hr.Body).Decode(&er)
		hr.Body.Close()
		if hr.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("old session %d: HTTP %d, want 503", i, hr.StatusCode)
		}
		if hr.Header.Get("Retry-After") == "" {
			t.Fatalf("old session %d: 503 without Retry-After", i)
		}
		if body != nil || er.Peer == "" || er.SessionID == "" {
			t.Fatalf("old session %d: no forwarding address in %+v", i, er)
		}
	}
	// Clients follow transparently: the next operation on each old handle
	// lands on the peer, at the exact pre-drain state.
	for i, h := range handles {
		cp, err := h.Checkpoint()
		if err != nil {
			t.Fatalf("session %d post-migration checkpoint: %v", i, err)
		}
		// (Session IDs are per-node counters and may collide across nodes, so
		// the successful checkpoint — node 0 no longer holds the session — is
		// itself the proof that the handle followed the forwarding address.)
		if cp.Cycle != pre[i].Cycle || cp.StateHash != pre[i].StateHash {
			t.Fatalf("session %d lost state in migration: %s@%d, want %s@%d",
				i, cp.StateHash, cp.Cycle, pre[i].StateHash, pre[i].Cycle)
		}
	}
	// Continue each migrated session and compare against an uninterrupted
	// control run of the identical plan on a healthy node (which may not have
	// seen the design yet if the ring sent every migrated session elsewhere).
	if _, err := f.Client(1).Compile(r); err != nil {
		t.Fatal(err)
	}
	for i, h := range handles {
		rng := rand.New(rand.NewSource(int64(500 + i)))
		pokeInputs(t, h, resp.Inputs, rng)
		cyc, err := h.Run(4)
		if err != nil {
			t.Fatal(err)
		}
		if want := pre[i].Cycle + 4; cyc != want {
			t.Fatalf("session %d cycle count not monotone: %d, want %d", i, cyc, want)
		}
		final, err := h.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		ctrl, err := f.Client(1).NewSession(resp.Key)
		if err != nil {
			t.Fatal(err)
		}
		crng := rand.New(rand.NewSource(int64(100 + i)))
		for step := 0; step < 3; step++ {
			pokeInputs(t, ctrl, resp.Inputs, crng)
			if _, err := ctrl.Run(2); err != nil {
				t.Fatal(err)
			}
		}
		crng2 := rand.New(rand.NewSource(int64(500 + i)))
		pokeInputs(t, ctrl, resp.Inputs, crng2)
		if _, err := ctrl.Run(4); err != nil {
			t.Fatal(err)
		}
		ccp, err := ctrl.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		if ccp.StateHash != final.StateHash || ccp.Cycle != final.Cycle {
			t.Fatalf("session %d: migrated run %s@%d != uninterrupted control %s@%d",
				i, final.StateHash, final.Cycle, ccp.StateHash, ccp.Cycle)
		}
	}
	// Fleet accounting: 3 out of node 0, 3 in across peers.
	m0, err := f.Client(0).Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m0.Cluster.SessionsMigratedOut != nSessions {
		t.Fatalf("node 0 reports %d migrated out, want %d", m0.Cluster.SessionsMigratedOut, nSessions)
	}
	var in int64
	for i := 1; i < 3; i++ {
		m, err := f.Client(i).Metrics()
		if err != nil {
			t.Fatal(err)
		}
		in += m.Cluster.SessionsMigratedIn
	}
	if in != nSessions {
		t.Fatalf("peers report %d migrated in, want %d", in, nSessions)
	}
}

// TestFaultPeerDeath: the owning peer's connection drops mid-artifact-fetch;
// the requesting node falls back to compiling locally and the request
// succeeds.
func TestFaultPeerDeath(t *testing.T) {
	f := startFleet(t, 3, 2*time.Second)
	r := compileReq("RocketChip-1C", 11)
	owner, other := ownerOf(t, f, r)
	if _, err := f.Client(owner).Compile(r); err != nil { // pre-warm the owner
		t.Fatal(err)
	}
	// Times > 1: net/http transparently retries a GET that dies on a reused
	// keep-alive connection, so a single kill would be absorbed. Killing
	// every attempt models a peer that is actually gone.
	f.Injectors[owner].Fault(clustertest.Rule{Path: "/v1/artifacts", Mode: clustertest.Kill, Times: 8})
	resp, err := f.Client(other).Compile(r)
	if err != nil {
		t.Fatalf("compile did not survive peer death: %v", err)
	}
	if resp.Key != r.Key() {
		t.Fatalf("got key %s, want %s", resp.Key, r.Key())
	}
	m, err := f.Client(other).Metrics()
	if err != nil {
		t.Fatal(err)
	}
	cm := m.Cluster
	if cm.ArtifactFetchFallbacks != 1 || cm.CompilesLocal != 1 || cm.ArtifactFetches != 0 {
		t.Fatalf("fallbacks=%d local=%d fetches=%d, want 1/1/0",
			cm.ArtifactFetchFallbacks, cm.CompilesLocal, cm.ArtifactFetches)
	}
}

// TestFaultStalledPeer: a peer that stalls past the fetch timeout sheds the
// request with 503 + Retry-After instead of holding it open; the next
// attempt (stall consumed) succeeds via peer fetch.
func TestFaultStalledPeer(t *testing.T) {
	f := startFleet(t, 3, 500*time.Millisecond)
	r := compileReq("RocketChip-1C", 12)
	owner, other := ownerOf(t, f, r)
	if _, err := f.Client(owner).Compile(r); err != nil { // pre-warm the owner
		t.Fatal(err)
	}
	f.Injectors[owner].Fault(clustertest.Rule{
		Path: "/v1/artifacts", Mode: clustertest.Stall, StallFor: 5 * time.Second,
	})
	_, err := f.Client(other).Compile(r)
	var ae *service.APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusServiceUnavailable {
		t.Fatalf("stalled peer: got %v, want HTTP 503", err)
	}
	if ae.RetryAfter < 1 {
		t.Fatalf("503 came without Retry-After (got %d)", ae.RetryAfter)
	}
	m, err2 := f.Client(other).Metrics()
	if err2 != nil {
		t.Fatal(err2)
	}
	if m.Cluster.ArtifactFetchTimeouts != 1 {
		t.Fatalf("timeouts=%d, want 1", m.Cluster.ArtifactFetchTimeouts)
	}
	// Retry after the shed: the stall rule is consumed, fetch succeeds.
	if _, err := f.Client(other).Compile(r); err != nil {
		t.Fatalf("retry after shed failed: %v", err)
	}
	m, err = f.Client(other).Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m.Cluster.ArtifactFetches != 1 {
		t.Fatalf("retry did not fetch from peer (fetches=%d)", m.Cluster.ArtifactFetches)
	}
}

// TestFaultCorruptArtifact: a flipped byte in the artifact body is caught
// by the content hash and refetched; the request still succeeds with no
// local compile.
func TestFaultCorruptArtifact(t *testing.T) {
	f := startFleet(t, 3, 0)
	r := compileReq("RocketChip-1C", 13)
	owner, other := ownerOf(t, f, r)
	if _, err := f.Client(owner).Compile(r); err != nil { // pre-warm the owner
		t.Fatal(err)
	}
	f.Injectors[owner].Fault(clustertest.Rule{Path: "/v1/artifacts", Mode: clustertest.Corrupt})
	if _, err := f.Client(other).Compile(r); err != nil {
		t.Fatalf("compile did not survive artifact corruption: %v", err)
	}
	m, err := f.Client(other).Metrics()
	if err != nil {
		t.Fatal(err)
	}
	cm := m.Cluster
	if cm.ArtifactFetchCorrupt != 1 || cm.ArtifactFetches != 1 || cm.ArtifactFetchFallbacks != 0 {
		t.Fatalf("corrupt=%d fetches=%d fallbacks=%d, want 1/1/0",
			cm.ArtifactFetchCorrupt, cm.ArtifactFetches, cm.ArtifactFetchFallbacks)
	}
	if f.Injectors[owner].Faulted() != 1 {
		t.Fatalf("injector faulted %d requests, want 1", f.Injectors[owner].Faulted())
	}
}

// retry503 runs op, retrying while the server sheds with a bare 503 (drain
// in progress, forwarding address not posted yet). Forwarded 503s are
// followed inside the session handle and never surface here.
func retry503(t *testing.T, op func() error) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		err := op()
		if err == nil {
			return
		}
		var ae *service.APIError
		if errors.As(err, &ae) &&
			(ae.Status == http.StatusServiceUnavailable || ae.Status == http.StatusTooManyRequests) &&
			time.Now().Before(deadline) {
			time.Sleep(20 * time.Millisecond)
			continue
		}
		t.Fatalf("session op: %v", err)
	}
}

// TestMigrationUnderLoad: concurrent clients drive sessions on a node that
// drains mid-run. Every client finishes its full plan — operations shed
// during the drain retry, forwarded operations follow — and each final
// state hash matches an uninterrupted control run of the same plan.
func TestMigrationUnderLoad(t *testing.T) {
	f := startFleet(t, 3, 0)
	r := compileReq("RocketChip-1C", 21)
	resp, err := f.Client(0).Compile(r)
	if err != nil {
		t.Fatal(err)
	}
	// Pre-warm every node so migrated restores never wait on a compile, and
	// open co-tenants everywhere so the clients' sessions run on batch lanes
	// before and after they move (node 0's co-tenants move with them).
	for i := 1; i < 3; i++ {
		if _, err := f.Client(i).Compile(r); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		openCoTenants(t, f.Client(i), resp.Key)
	}
	const (
		nClients = 4
		steps    = 12
		cycles   = 3
	)
	finals := make([]*service.CheckpointResponse, nClients)
	var wg sync.WaitGroup
	for cl := 0; cl < nClients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			var h *service.SessionHandle
			retry503(t, func() error {
				var e2 error
				h, e2 = f.Client(0).NewSession(resp.Key)
				return e2
			})
			if !h.Batched {
				t.Errorf("client %d: session past the break-even not batched", cl)
			}
			rng := rand.New(rand.NewSource(int64(1000 + cl)))
			last := uint64(0)
			for step := 0; step < steps; step++ {
				for _, in := range resp.Inputs {
					if in.Wide {
						continue
					}
					v := rng.Uint64()
					if in.Width < 64 {
						v &= (uint64(1) << uint(in.Width)) - 1
					}
					retry503(t, func() error { return h.Poke(in.Name, v) })
				}
				var cyc uint64
				retry503(t, func() error {
					var e2 error
					cyc, e2 = h.Run(cycles)
					return e2
				})
				if cyc <= last && !(cyc == 0 && last == 0) {
					t.Errorf("client %d: cycle count not monotone: %d after %d", cl, cyc, last)
				}
				last = cyc
			}
			if want := uint64(steps * cycles); last != want {
				t.Errorf("client %d finished at cycle %d, want %d", cl, last, want)
			}
			retry503(t, func() error {
				var e2 error
				finals[cl], e2 = h.Checkpoint()
				return e2
			})
		}(cl)
	}
	// Drain node 0 mid-run.
	time.Sleep(100 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if _, err := f.Nodes[0].DrainMigrate(ctx); err != nil {
		t.Errorf("drain-migrate under load: %v", err)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	migratedOntoLanes(t, f, 1, 2)
	// Control: the same plans, uninterrupted, on a healthy node.
	for cl := 0; cl < nClients; cl++ {
		ctrl, err := f.Client(1).NewSession(resp.Key)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(1000 + cl)))
		for step := 0; step < steps; step++ {
			pokeInputs(t, ctrl, resp.Inputs, rng)
			if _, err := ctrl.Run(cycles); err != nil {
				t.Fatal(err)
			}
		}
		cp, err := ctrl.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		if finals[cl] == nil {
			t.Fatalf("client %d produced no final checkpoint", cl)
		}
		if cp.StateHash != finals[cl].StateHash || cp.Cycle != finals[cl].Cycle {
			t.Fatalf("client %d: migrated run %s@%d != uninterrupted control %s@%d",
				cl, finals[cl].StateHash, finals[cl].Cycle, cp.StateHash, cp.Cycle)
		}
	}
}

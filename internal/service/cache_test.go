package service

import (
	"sync"
	"testing"

	repcut "repro"
	"repro/internal/designs"
)

// smallReq is a fast-compiling request for cache tests; vary seed to get
// distinct content addresses over the same design.
func smallReq(seed int64) CompileRequest {
	return CompileRequest{Design: "RocketChip-1C", Scale: 0.25, Threads: 2, Seed: seed}
}

// offlineFingerprint compiles the request directly (no cache, no server)
// and returns the program fingerprint — the ground truth the cached
// artifact must match.
func offlineFingerprint(t *testing.T, req CompileRequest) uint64 {
	t.Helper()
	req = req.normalize()
	cfg, err := designs.ParseName(req.Design)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Scale = req.Scale
	d, err := repcut.Elaborate(designs.BuildCircuit(cfg))
	if err != nil {
		t.Fatal(err)
	}
	c, err := d.CompileProgram(req.Options())
	if err != nil {
		t.Fatal(err)
	}
	return c.Program.Fingerprint()
}

func TestKeyCanonicalization(t *testing.T) {
	// Spelling a default explicitly must not change the address.
	a := CompileRequest{Design: "RocketChip-1C", Threads: 2}
	b := CompileRequest{Design: "RocketChip-1C", Threads: 2, Seed: 1, Scale: 1}
	if a.Key() != b.Key() {
		t.Errorf("defaulted and explicit requests hash differently:\n%s\n%s", a.Key(), b.Key())
	}
	// Addresses are stable across releases: these were computed when the
	// request still carried an optimization level (always 2).
	for req, want := range map[*CompileRequest]string{
		&a: "40d0207a65436269b0ad7ffd467a23f380c7e70816574c52855fb3e0838c9495",
		{Source: "circuit X ...", Threads: 3, Seed: 7}: "b678c54ebc6ca04239c6152d3bd9dcbce6cc3154144fb2e78f3463f2f17168ae",
	} {
		if got := req.Key(); got != want {
			t.Errorf("%+v: key %s, want %s", *req, got, want)
		}
	}
	// Requests for one program share one address: a non-positive scale
	// builds the full-size design, a non-positive or default epsilon reads
	// as omitted, and a one-thread compile partitions nothing, so its
	// epsilon, seed and weighting do not count.
	for i, same := range [][]CompileRequest{
		{a, {Design: "RocketChip-1C", Threads: 2, Scale: -1}, {Design: "RocketChip-1C", Threads: 2, Scale: -0.5}},
		{a, {Design: "RocketChip-1C", Threads: 2, Epsilon: 0.03}, {Design: "RocketChip-1C", Threads: 2, Epsilon: -1}},
		{{Design: "RocketChip-1C"}, {Design: "RocketChip-1C", Threads: 1, Seed: 9, Unweighted: true, Epsilon: 0.2}},
	} {
		for _, r := range same[1:] {
			if r.Key() != same[0].Key() {
				t.Errorf("group %d: %+v and %+v compile one program but hash differently", i, same[0], r)
			}
		}
	}
	// Every program-changing option must change the address.
	variants := []CompileRequest{
		{Design: "RocketChip-1C", Threads: 4},
		{Design: "RocketChip-1C", Threads: 2, Epsilon: 0.2},
		{Design: "RocketChip-1C"},
		{Design: "RocketChip-1C", Threads: 2, Seed: 7},
		{Design: "RocketChip-1C", Threads: 2, Unweighted: true},
		{Design: "RocketChip-1C", Threads: 2, Scale: 0.5},
		{Design: "SmallBOOM-1C", Threads: 2},
		{Source: "circuit X ...", Threads: 2},
	}
	seen := map[string]int{a.Key(): -1}
	for i, v := range variants {
		k := v.Key()
		if j, dup := seen[k]; dup {
			t.Errorf("variant %d collides with %d: %+v", i, j, v)
		}
		seen[k] = i
	}
}

func TestSingleflightConcurrentCompiles(t *testing.T) {
	m := NewMetrics()
	c := NewCache(1<<30, 4, m)
	req := smallReq(1)

	const N = 16
	entries := make([]*Entry, N)
	var wg sync.WaitGroup
	for i := 0; i < N; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e, _, err := c.GetOrCompile(req)
			if err != nil {
				t.Error(err)
				return
			}
			entries[i] = e
		}(i)
	}
	wg.Wait()

	// Exactly one execution: one miss, N-1 hits, one resident entry, and
	// every caller got the same artifact.
	if got := m.cacheMisses.Load(); got != 1 {
		t.Errorf("misses = %d, want 1 (singleflight must dedup)", got)
	}
	if got := m.cacheHits.Load(); got != N-1 {
		t.Errorf("hits = %d, want %d", got, N-1)
	}
	if got := c.Len(); got != 1 {
		t.Errorf("cache entries = %d, want 1", got)
	}
	for i := 1; i < N; i++ {
		if entries[i] != entries[0] {
			t.Fatalf("caller %d got a different entry", i)
		}
	}
	// The cached program is bit-identical to an offline compile.
	if want := offlineFingerprint(t, req); entries[0].Fingerprint != want {
		t.Errorf("cached fingerprint %016x != offline %016x", entries[0].Fingerprint, want)
	}
}

func TestLRUEvictionByBytes(t *testing.T) {
	// Learn the per-entry charge, then budget for ~2.5 entries.
	probe := NewCache(1<<30, 2, NewMetrics())
	e0, _, err := probe.GetOrCompile(smallReq(1))
	if err != nil {
		t.Fatal(err)
	}
	if e0.Bytes <= 0 {
		t.Fatalf("entry bytes = %d, want > 0", e0.Bytes)
	}

	m := NewMetrics()
	c := NewCache(e0.Bytes*5/2, 2, m)
	for seed := int64(1); seed <= 3; seed++ {
		if _, _, err := c.GetOrCompile(smallReq(seed)); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.cacheEvictions.Load(); got == 0 {
		t.Error("no evictions under a 2.5-entry budget after 3 inserts")
	}
	if got, budget := c.BytesResident(), c.Budget(); got > budget {
		t.Errorf("resident bytes %d exceed budget %d", got, budget)
	}
	// LRU order: seed 1 (oldest, untouched) is gone, seed 3 resident.
	if _, ok := c.Lookup(smallReq(1).Key()); ok {
		t.Error("LRU entry (seed 1) still resident after eviction")
	}
	if _, ok := c.Lookup(smallReq(3).Key()); !ok {
		t.Error("most recent entry (seed 3) was evicted")
	}

	// A hit refreshes recency: touch seed 2, insert seed 4, and seed 2
	// must survive while seed 3 goes.
	if _, _, err := c.GetOrCompile(smallReq(2)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.GetOrCompile(smallReq(4)); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Lookup(smallReq(2).Key()); !ok {
		t.Error("recently-hit entry (seed 2) was evicted")
	}
	if _, ok := c.Lookup(smallReq(3).Key()); ok {
		t.Error("stale entry (seed 3) survived over the recently-hit one")
	}
}

func TestOverBudgetEntryStillServes(t *testing.T) {
	// A budget smaller than one program must still admit (and keep) the
	// most recent entry rather than thrash to zero.
	c := NewCache(1, 2, NewMetrics())
	e, _, err := c.GetOrCompile(smallReq(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Lookup(e.Key); !ok {
		t.Error("sole over-budget entry was evicted")
	}
}

func TestCompileAdmissionSheds(t *testing.T) {
	m := NewMetrics()
	c := NewCache(1<<30, 1, m)
	// Occupy the only compile slot, then a miss must shed with
	// ErrCompileBusy instead of queueing.
	if !c.sem.TryAcquire() {
		t.Fatal("could not occupy the compile slot")
	}
	_, _, err := c.GetOrCompile(smallReq(1))
	if err != ErrCompileBusy {
		t.Fatalf("err = %v, want ErrCompileBusy", err)
	}
	if got := m.compileRejected.Load(); got != 1 {
		t.Errorf("compileRejected = %d, want 1", got)
	}
	c.sem.Release()
	// With the slot free the same request compiles fine.
	if _, _, err := c.GetOrCompile(smallReq(1)); err != nil {
		t.Fatal(err)
	}
}

func TestCompileErrorPropagatesToJoiners(t *testing.T) {
	c := NewCache(1<<30, 2, NewMetrics())
	bad := CompileRequest{Design: "NoSuchDesign-1C", Threads: 2}
	const N = 4
	errs := make([]error, N)
	var wg sync.WaitGroup
	for i := 0; i < N; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = c.GetOrCompile(bad)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err == nil {
			t.Errorf("caller %d got nil error for an unknown design", i)
		}
	}
	if got := c.Len(); got != 0 {
		t.Errorf("failed compile left %d cache entries", got)
	}
	// The failure is not sticky: a later good request with the same key
	// shape recompiles.
	if _, _, err := c.GetOrCompile(smallReq(1)); err != nil {
		t.Fatal(err)
	}
}

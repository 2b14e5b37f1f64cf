package service

import (
	"container/list"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	repcut "repro"
	"repro/internal/cgraph"
	"repro/internal/codegen"
	"repro/internal/designs"
	"repro/internal/firrtl"
	"repro/internal/par"
)

// ErrCompileBusy is returned when the compile admission semaphore is full:
// the server is already compiling (or has queued) its configured maximum
// and sheds further misses with 503 rather than queueing unboundedly.
var ErrCompileBusy = errors.New("service: compile queue full")

// Entry is one immutable cache resident: the compiled artifact plus the
// metadata every response needs. Sessions hold their own reference to the
// Compiled program, so evicting an Entry never invalidates live sessions —
// it only drops the cache's pin.
type Entry struct {
	Key         string
	Name        string // canonical design name
	Compiled    *repcut.Compiled
	Stats       cgraph.Stats
	Fingerprint uint64
	// Bytes is the LRU charge: resident program bytes plus, for validated
	// compiles, the translation-validation certificate (including its peak
	// hash-cons arena — re-validating on a refill costs that much again).
	Bytes        int64
	CompileTime  time.Duration // wall-clock latency of the Compile call
	Validated    bool          // the compile carried translation validation
	ValidateTime time.Duration // wall time the validation pass took

	// native is published by the codegen tier's asynchronous build-behind
	// once the entry's native kernel is built (or found warm in the
	// artifact store); nil until then. Sessions poll it via Native and
	// hot-swap their private engines onto it.
	native atomic.Pointer[codegen.Kernel]
}

// Native returns the entry's native kernel, or nil while the build-behind
// is still running (or the codegen tier is disabled).
func (e *Entry) Native() *codegen.Kernel { return e.native.Load() }

// Report renders the entry as the shared CLI/server report shape.
func (e *Entry) Report() DesignReport {
	c := e.Compiled
	return DesignReport{
		Design:     e.Name,
		Stats:      StatsJSON(e.Stats),
		Partition:  PartitionJSON(c.Report),
		Program:    ProgramJSON(c.Program),
		Validation: ValidationJSON(c.Verification),
		Inputs:     PortsJSON(c.Program.Inputs),
		Outputs:    PortsJSON(c.Program.Outputs),
	}
}

// flight is one in-progress compile that concurrent requesters for the
// same key wait on (singleflight).
type flight struct {
	done chan struct{}
	e    *Entry
	err  error
}

// Cache is the content-addressed compile cache: at most one compile per
// key is ever in flight (joiners block on it and count as hits), resident
// entries are bounded by a byte budget with LRU eviction, and compile
// *executions* are bounded by an admission semaphore (par.Sem) so a cold
// cache cannot fork an unbounded number of partition pipelines.
type Cache struct {
	budget int64
	sem    *par.Sem
	m      *Metrics
	cg     *codegenTier // nil unless the native build-behind tier is on

	mu      sync.Mutex
	bytes   int64
	lru     *list.List // front = most recently used; values are *Entry
	byKey   map[string]*list.Element
	flights map[string]*flight
}

// NewCache creates a cache with the given resident-byte budget and at most
// maxCompiles concurrently executing compiles.
func NewCache(budget int64, maxCompiles int, m *Metrics) *Cache {
	if m == nil {
		m = NewMetrics()
	}
	return &Cache{
		budget:  budget,
		sem:     par.NewSem(maxCompiles),
		m:       m,
		lru:     list.New(),
		byKey:   make(map[string]*list.Element),
		flights: make(map[string]*flight),
	}
}

// Lookup returns the entry for a key without compiling, touching the LRU
// on hit. It does not count toward hit/miss metrics (it backs session
// creation, not compile traffic).
func (c *Cache) Lookup(key string) (*Entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		return nil, false
	}
	c.lru.MoveToFront(el)
	return el.Value.(*Entry), true
}

// Len returns the number of resident entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// BytesResident returns the current resident-byte total.
func (c *Cache) BytesResident() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Budget returns the configured byte budget.
func (c *Cache) Budget() int64 { return c.budget }

// GetOrCompile returns the entry for the request's content address,
// compiling it at most once no matter how many callers race: the first
// miss becomes the flight leader (subject to compile admission), everyone
// else joins the flight and is counted as a hit — they paid no compile.
func (c *Cache) GetOrCompile(req CompileRequest) (*Entry, bool, error) {
	key := req.Key()
	c.mu.Lock()
	if el, ok := c.byKey[key]; ok {
		c.lru.MoveToFront(el)
		c.mu.Unlock()
		c.m.cacheHits.Add(1)
		return el.Value.(*Entry), true, nil
	}
	if f, ok := c.flights[key]; ok {
		c.mu.Unlock()
		<-f.done
		if f.err != nil {
			return nil, false, f.err
		}
		c.m.cacheHits.Add(1)
		return f.e, true, nil
	}
	// Miss: become the flight leader, if the compile queue admits us.
	if !c.sem.TryAcquire() {
		c.mu.Unlock()
		c.m.compileRejected.Add(1)
		return nil, false, ErrCompileBusy
	}
	f := &flight{done: make(chan struct{})}
	c.flights[key] = f
	c.m.cacheMisses.Add(1)
	c.mu.Unlock()

	e, err := Compile(req)
	c.sem.Release()
	if err != nil {
		c.m.compileErrors.Add(1)
	} else {
		c.m.compileLat.Observe(e.CompileTime)
		if e.Validated {
			c.m.validations.Add(1)
			c.m.validateLat.Observe(e.ValidateTime)
		}
	}

	c.mu.Lock()
	delete(c.flights, key)
	if err == nil {
		c.byKey[key] = c.lru.PushFront(e)
		c.bytes += e.Bytes
		c.evictLocked()
		// Kick the asynchronous native build for the new resident; the
		// kernel hot-swaps into live sessions when it lands.
		if c.cg != nil {
			c.cg.buildBehind(e)
		}
	}
	f.e, f.err = e, err
	close(f.done)
	c.mu.Unlock()
	if err != nil {
		return nil, false, err
	}
	return e, false, nil
}

// Install inserts an externally assembled entry — a compiled artifact
// fetched from a cluster peer — into the cache. If the key is already
// resident the existing entry wins and is returned, so racing fetch and
// local compile converge on one entry. The native build-behind is kicked
// for fresh installs that did not arrive with a kernel.
func (c *Cache) Install(e *Entry) *Entry {
	c.mu.Lock()
	if el, ok := c.byKey[e.Key]; ok {
		c.lru.MoveToFront(el)
		c.mu.Unlock()
		return el.Value.(*Entry)
	}
	c.byKey[e.Key] = c.lru.PushFront(e)
	c.bytes += e.Bytes
	c.evictLocked()
	cg := c.cg
	c.mu.Unlock()
	if cg != nil && e.Native() == nil {
		cg.buildBehind(e)
	}
	return e
}

// evictLocked drops least-recently-used entries until the resident bytes
// fit the budget, always keeping the most recent entry so a single
// over-budget program still serves.
func (c *Cache) evictLocked() {
	for c.bytes > c.budget && c.lru.Len() > 1 {
		el := c.lru.Back()
		e := el.Value.(*Entry)
		c.lru.Remove(el)
		delete(c.byKey, e.Key)
		c.bytes -= e.Bytes
		c.m.cacheEvictions.Add(1)
	}
}

// Compile resolves the request's design and runs the partition+compile
// pipeline outside any cache. The cache compiles its misses through it, and
// so does the repcut command, so both report the same DesignReport for one
// request.
func Compile(req CompileRequest) (*Entry, error) {
	start := time.Now()
	req = req.normalize()
	circ, name, err := resolveDesign(req)
	if err != nil {
		return nil, err
	}
	d, err := repcut.Elaborate(circ)
	if err != nil {
		return nil, err
	}
	compiled, err := d.CompileProgram(req.Options())
	if err != nil {
		return nil, err
	}
	e := &Entry{
		Key:         req.Key(),
		Name:        name,
		Compiled:    compiled,
		Stats:       d.Graph.Stats(),
		Fingerprint: compiled.Program.Fingerprint(),
		Bytes:       compiled.Program.MemBytes(),
	}
	if v := compiled.Verification; v != nil && v.Validation != nil {
		e.Bytes += v.Validation.MemBytes()
		e.Validated = true
		e.ValidateTime = v.Validation.Elapsed
	}
	e.CompileTime = time.Since(start)
	return e, nil
}

// resolveDesign turns a request's design half into a checked circuit.
func resolveDesign(req CompileRequest) (*firrtl.Circuit, string, error) {
	switch {
	case req.Design != "" && req.Source != "":
		return nil, "", fmt.Errorf("service: set either design or source, not both")
	case req.Source != "":
		circ, err := repcut.ParseCircuit(req.Source)
		if err != nil {
			return nil, "", err
		}
		return circ, circ.Name, nil
	case req.Design != "":
		cfg, err := designs.ParseName(req.Design)
		if err != nil {
			return nil, "", err
		}
		cfg.Scale = req.Scale
		return designs.BuildCircuit(cfg), cfg.Name(), nil
	}
	return nil, "", fmt.Errorf("service: request names no design (set design or source)")
}

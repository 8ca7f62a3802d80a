// Package service turns the proximity-delay STA engine into a long-lived
// HTTP/JSON timing-analysis server: a model registry amortizes loading
// characterized GateModel JSON across requests, uploaded netlists are
// levelized once into reusable sta.Compiled handles, and stimulus vectors
// stream through the batched analyze API under a bounded worker budget.
// Everything is stdlib-only (net/http, expvar) — no external dependencies.
package service

import (
	"container/list"
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"sync"

	"repro/internal/core"
	"repro/internal/macromodel"
)

// Registry loads charz-produced GateModel JSON files from a library
// directory into an LRU cache of ready-to-evaluate calculators. Loads are
// deduplicated singleflight-style: concurrent requests for the same cell
// deserialize (and validate) the file exactly once, with every waiter
// handed the one result. Failed loads are not cached, so a fixed file is
// picked up on the next request.
type Registry struct {
	dir string
	cap int

	mu      sync.Mutex
	entries map[string]*regEntry
	lru     *list.List // front = most recently used; values are *regEntry

	hits       int64 // requests answered by a resident or in-flight entry
	misses     int64 // requests that had to read the file (one per load)
	evictions  int64
	loadErrors int64

	// testLoadHook, when non-nil, runs inside load before the file read —
	// tests use it to hold a load open and prove concurrent requests
	// coalesce onto it instead of loading again.
	testLoadHook func(name string)
}

// regEntry is one cell's cache slot. ready is closed when the load
// completes (calc/err are immutable afterwards); elem is nil while the load
// is still in flight — such entries live in the map but not yet in the LRU
// list. Eviction additionally skips any entry whose load has not finished
// (see evictExcess): evicting an in-flight entry would detach it from the
// map while its loader still holds it, so a concurrent requester of the
// same cold cell would start a duplicate disk load and re-insert a second,
// stale entry over the first.
type regEntry struct {
	name  string
	elem  *list.Element
	ready chan struct{}
	calc  *core.Calculator
	err   error
}

// loaded reports whether the entry's load has completed (success or
// failure). Must not be called with calc/err access before it returns true.
func (e *regEntry) loaded() bool {
	select {
	case <-e.ready:
		return true
	default:
		return false
	}
}

// NewRegistry serves models from dir, keeping at most capacity cells
// resident (minimum 1; a typical standard-cell library working set is
// small, so the default server uses a few dozen slots).
func NewRegistry(dir string, capacity int) *Registry {
	if capacity < 1 {
		capacity = 1
	}
	return &Registry{
		dir:     dir,
		cap:     capacity,
		entries: map[string]*regEntry{},
		lru:     list.New(),
	}
}

// RegistryStats is a point-in-time snapshot of the cache counters.
type RegistryStats struct {
	Hits       int64 `json:"hits"`
	Misses     int64 `json:"misses"`
	Evictions  int64 `json:"evictions"`
	LoadErrors int64 `json:"loadErrors"`
	Resident   int   `json:"resident"`
}

// Stats snapshots the counters.
func (r *Registry) Stats() RegistryStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return RegistryStats{
		Hits:       r.hits,
		Misses:     r.misses,
		Evictions:  r.evictions,
		LoadErrors: r.loadErrors,
		Resident:   r.lru.Len(),
	}
}

// Get returns the calculator for a cell name, loading <dir>/<name>.json on
// first use. Safe for concurrent use; a request for a cell whose load is in
// flight blocks until that one load finishes and shares its outcome.
func (r *Registry) Get(name string) (*core.Calculator, error) {
	if err := checkCellName(name); err != nil {
		return nil, err
	}
	r.mu.Lock()
	if e, ok := r.entries[name]; ok {
		r.hits++
		if e.elem != nil {
			r.lru.MoveToFront(e.elem)
		}
		r.mu.Unlock()
		<-e.ready
		if e.err != nil {
			return nil, e.err
		}
		return e.calc, nil
	}
	e := &regEntry{name: name, ready: make(chan struct{})}
	r.entries[name] = e
	r.misses++
	r.mu.Unlock()

	calc, err := r.load(name)

	r.mu.Lock()
	e.calc, e.err = calc, err
	close(e.ready)
	if err != nil {
		r.loadErrors++
		delete(r.entries, name) // don't cache failures; retry next request
	} else {
		e.elem = r.lru.PushFront(e)
		r.evictExcess()
	}
	r.mu.Unlock()
	return calc, err
}

// evictExcess trims the LRU down to capacity, walking from the cold end.
// Entries whose load has not completed are skipped rather than evicted:
// dropping one mid-load would orphan the waiters parked on its ready
// channel from the map, and a concurrent Get for the same cell would kick
// off a duplicate load of a file already being read. (In-flight entries
// normally are not in the LRU at all — elem is nil until the load lands —
// but the skip keeps the invariant local to this function instead of
// depending on that.) Caller must hold r.mu.
func (r *Registry) evictExcess() {
	for el := r.lru.Back(); el != nil && r.lru.Len() > r.cap; {
		victim := el.Value.(*regEntry)
		prev := el.Prev()
		if victim.loaded() {
			r.lru.Remove(el)
			victim.elem = nil
			delete(r.entries, victim.name)
			r.evictions++
		}
		el = prev
	}
}

// load reads, validates (macromodel.Load checks grid ranks and axes) and
// wraps one model file. Its errors reach clients, so they name neither the
// cell (the caller does) nor the file: where the library lives is the
// server's business.
func (r *Registry) load(name string) (*core.Calculator, error) {
	if r.testLoadHook != nil {
		r.testLoadHook(name)
	}
	m, err := macromodel.Load(filepath.Join(r.dir, name+".json"))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, errors.New("no model in the library")
	}
	if err != nil {
		// Load wraps the reason in the file's path; keep the reason.
		if reason := errors.Unwrap(err); reason != nil {
			err = reason
		}
		return nil, fmt.Errorf("invalid model: %w", err)
	}
	return core.NewCalculator(m), nil
}

// checkCellName keeps registry keys inside the library directory: plain
// names only, no path separators or traversal.
func checkCellName(name string) error {
	if name == "" {
		return fmt.Errorf("service: empty cell name")
	}
	for _, c := range name {
		ok := c == '_' || c == '-' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
		if !ok {
			return fmt.Errorf("service: bad cell name %q (want [A-Za-z0-9_-]+)", name)
		}
	}
	return nil
}

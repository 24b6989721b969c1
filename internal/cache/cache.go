// Package cache is the content-addressed result store of the
// characterisation pipeline. A request's identity — model, parameters,
// starting point, effective solver knobs — is condensed by a Fingerprint to
// a SHA-256 key; the Store maps keys to JSON payloads through two tiers (a
// byte-bounded in-memory LRU in front of an optional persistent directory of
// JSON files) and collapses concurrent identical computations with
// singleflight, so N simultaneous requests for the same key cost one
// pipeline run.
//
// Payloads are opaque JSON ([]byte) — the cache knows nothing about
// core.Result, so it serves any (de)serialisable product. All methods are
// safe for concurrent use and safe on a nil *Store (a nil store never hits
// and Do simply computes), making the cache a zero-cost optional dependency.
package cache

import (
	"container/list"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
)

// DefaultMaxBytes bounds the in-memory tier when Options.MaxBytes is unset.
const DefaultMaxBytes = 64 << 20 // 64 MiB

// Origin says which tier (if any) satisfied a lookup.
type Origin int

const (
	// OriginComputed: nothing cached or in flight; the caller's compute ran.
	OriginComputed Origin = iota
	// OriginMem: served from the in-memory LRU.
	OriginMem
	// OriginDisk: served from the persistent tier (and promoted to memory).
	OriginDisk
	// OriginShared: served by joining an identical in-flight computation.
	OriginShared
)

// Cached reports whether the value was served without running compute.
func (o Origin) Cached() bool { return o != OriginComputed }

// String implements fmt.Stringer.
func (o Origin) String() string {
	switch o {
	case OriginComputed:
		return "computed"
	case OriginMem:
		return "mem"
	case OriginDisk:
		return "disk"
	case OriginShared:
		return "shared"
	}
	return fmt.Sprintf("Origin(%d)", int(o))
}

// Options configures a Store.
type Options struct {
	// MaxBytes bounds the in-memory LRU by payload bytes
	// (default DefaultMaxBytes). Entries larger than the bound bypass the
	// memory tier entirely (they still reach the disk tier).
	MaxBytes int64
	// Dir, when non-empty, adds the persistent tier: one JSON file per key,
	// written atomically, tolerated as misses when corrupt. The directory is
	// created if needed.
	Dir string
}

// entry is one in-memory LRU element.
type entry struct {
	key string
	val []byte
}

// flight is one in-progress computation that concurrent callers join.
type flight struct {
	done chan struct{}
	val  []byte
	err  error
}

// Store is the two-tier content-addressed store. The zero value is not
// useful; build one with New. A nil *Store is a valid "caching off" value.
type Store struct {
	mu       sync.Mutex
	maxBytes int64
	bytes    int64
	lru      *list.List // front = most recent; values are *entry
	idx      map[string]*list.Element
	sf       map[string]*flight
	disk     *diskStore
}

// New builds a Store. It fails only when the disk directory cannot be
// created.
func New(o Options) (*Store, error) {
	mb := o.MaxBytes
	if mb <= 0 {
		mb = DefaultMaxBytes
	}
	s := &Store{
		maxBytes: mb,
		lru:      list.New(),
		idx:      make(map[string]*list.Element),
		sf:       make(map[string]*flight),
	}
	if o.Dir != "" {
		d, err := newDiskStore(o.Dir)
		if err != nil {
			return nil, fmt.Errorf("cache: disk store: %w", err)
		}
		s.disk = d
	}
	return s, nil
}

// Get returns the payload for key from memory or disk. Disk hits are
// promoted to the memory tier. The returned slice must be treated as
// read-only (it may be shared with other callers).
func (s *Store) Get(key string) ([]byte, bool) {
	v, origin := s.lookup(key)
	if !origin.Cached() && s != nil && key != "" {
		cacheMetrics.Get().misses.Inc()
	}
	return v, origin.Cached()
}

// lookup is Get plus origin reporting. It counts hits; a miss is left to
// the caller, because Claim counts one only when the caller leads.
func (s *Store) lookup(key string) ([]byte, Origin) {
	if s == nil || key == "" {
		return nil, OriginComputed
	}
	m := cacheMetrics.Get()
	s.mu.Lock()
	if el, ok := s.idx[key]; ok {
		s.lru.MoveToFront(el)
		val := el.Value.(*entry).val
		s.mu.Unlock()
		m.hitsMem.Inc()
		return val, OriginMem
	}
	s.mu.Unlock()
	if s.disk != nil {
		if val, ok := s.disk.get(key); ok {
			s.insertMem(key, val)
			m.hitsDisk.Inc()
			return val, OriginDisk
		}
	}
	return nil, OriginComputed
}

// Put stores a JSON payload under key in both tiers. Non-JSON payloads are
// rejected (the disk envelope embeds the payload verbatim, and every
// legitimate caller stores serialised results anyway).
func (s *Store) Put(key string, payload []byte) error {
	if s == nil || key == "" {
		return nil
	}
	if !json.Valid(payload) {
		return errors.New("cache: payload is not valid JSON")
	}
	s.insertMem(key, payload)
	if s.disk != nil {
		s.disk.put(key, payload)
	}
	return nil
}

// insertMem adds (or refreshes) a memory-tier entry and evicts from the LRU
// tail until the byte bound holds. Oversized payloads are skipped: evicting
// the whole cache for one giant entry would serve nobody.
func (s *Store) insertMem(key string, val []byte) {
	sz := int64(len(val))
	if sz > s.maxBytes {
		return
	}
	m := cacheMetrics.Get()
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.idx[key]; ok {
		old := el.Value.(*entry)
		s.bytes += sz - int64(len(old.val))
		m.memBytes.Add(float64(sz - int64(len(old.val))))
		old.val = val
		s.lru.MoveToFront(el)
	} else {
		s.idx[key] = s.lru.PushFront(&entry{key: key, val: val})
		s.bytes += sz
		m.memBytes.Add(float64(sz))
		m.memEntries.Add(1)
	}
	for s.bytes > s.maxBytes {
		tail := s.lru.Back()
		if tail == nil {
			break
		}
		ev := tail.Value.(*entry)
		s.lru.Remove(tail)
		delete(s.idx, ev.key)
		s.bytes -= int64(len(ev.val))
		m.memBytes.Add(-float64(len(ev.val)))
		m.memEntries.Add(-1)
		m.evictions.Inc()
	}
}

// Claim is one caller's hold on a key, from Store.Claim. Origin says which
// of three it is: a hit (OriginMem or OriginDisk; Val is the payload), a
// join of an identical computation in flight (OriginShared; Wait for its
// outcome), or a lead (OriginComputed), which must Publish exactly once or
// every caller that joined waits forever.
type Claim struct {
	Val    []byte
	Origin Origin
	s      *Store
	key    string
	fl     *flight
}

// Claim resolves key for one caller with singleflight. A caller holding
// several claims must Publish every claim it leads before it Waits on any
// it joined — two callers that joined each other's keys would otherwise
// wait for each other forever. On a nil Store (or empty key) every claim
// leads and Publish stores nothing.
func (s *Store) Claim(key string) Claim {
	if s == nil || key == "" {
		return Claim{Origin: OriginComputed}
	}
	if val, origin := s.lookup(key); origin.Cached() {
		return Claim{Val: val, Origin: origin, s: s, key: key}
	}
	return s.fly(key, true)
}

// Reclaim gives up a hit or a join whose payload the caller cannot use (one
// that does not decode) and claims the key again without consulting the
// tiers: the caller leads a recomputation whose Publish overwrites the
// entry, or joins one already in flight.
func (c Claim) Reclaim() Claim { return c.s.fly(c.key, false) }

// fly joins the key's flight or registers a new one the caller leads.
// recheck looks at the memory tier under the lock first: a flight that
// completed between the caller's lookup and the lock has already stored
// its value.
func (s *Store) fly(key string, recheck bool) Claim {
	m := cacheMetrics.Get()
	s.mu.Lock()
	if fl, ok := s.sf[key]; ok {
		s.mu.Unlock()
		return Claim{Origin: OriginShared, s: s, key: key, fl: fl}
	}
	if el, ok := s.idx[key]; ok && recheck {
		s.lru.MoveToFront(el)
		val := el.Value.(*entry).val
		s.mu.Unlock()
		m.hitsMem.Inc()
		return Claim{Val: val, Origin: OriginMem, s: s, key: key}
	}
	fl := &flight{done: make(chan struct{})}
	s.sf[key] = fl
	s.mu.Unlock()
	m.misses.Inc()
	m.inflight.Add(1)
	return Claim{Origin: OriginComputed, s: s, key: key, fl: fl}
}

// Wait blocks until the flight a shared claim joined ends and returns its
// outcome: the leader's payload, or its error verbatim (a shared error
// means the one computation failed).
func (c Claim) Wait() ([]byte, error) {
	<-c.fl.done
	cacheMetrics.Get().shared.Inc()
	return c.fl.val, c.fl.err
}

// Publish ends a leading claim's flight with the computation's outcome: a
// successful payload is stored in both tiers (overwriting what the key
// held), an error is handed to every joined caller and never stored. It
// returns err, or the store's rejection of the payload. Publishing a claim
// that holds no flight (a nil Store) just returns err.
func (c Claim) Publish(val []byte, err error) error {
	if c.fl == nil {
		return err
	}
	if err == nil {
		err = c.s.Put(c.key, val)
	}
	if err != nil {
		val = nil
	}
	c.fl.val, c.fl.err = val, err
	c.s.mu.Lock()
	delete(c.s.sf, c.key)
	c.s.mu.Unlock()
	cacheMetrics.Get().inflight.Add(-1)
	close(c.fl.done)
	return err
}

// Do returns the payload for key, computing it at most once across all
// concurrent callers through one Claim: a cached value is returned
// immediately, a caller that joins an identical computation shares its
// outcome (value or error), and otherwise compute runs and a successful
// result is stored in both tiers. Failed computations are never cached: the
// next Do for the key computes again. On a nil Store (or empty key), Do just
// runs compute.
func (s *Store) Do(key string, compute func() ([]byte, error)) ([]byte, Origin, error) {
	c := s.Claim(key)
	if c.Origin == OriginShared {
		val, err := c.Wait()
		return val, c.Origin, err
	}
	if c.Origin.Cached() {
		return c.Val, c.Origin, nil
	}
	val, err := compute()
	if err = c.Publish(val, err); err != nil {
		val = nil
	}
	return val, c.Origin, err
}

// Len returns the number of entries in the memory tier.
func (s *Store) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lru.Len()
}

// Bytes returns the payload bytes held by the memory tier.
func (s *Store) Bytes() int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}

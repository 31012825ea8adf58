package service

import (
	"context"
	"sync"

	"buffy/internal/lru"
	"buffy/internal/session"
)

// sessionPool is a bounded, memory-accounted LRU of warm solver sessions
// keyed by the request's session fingerprint (SessionKey). A hit re-solves
// on an encoding some earlier request already paid for; a miss builds the
// session once under single-flight admission (concurrent requesters for
// the same key wait on the first builder instead of racing N compiles).
// Builds in flight live outside the LRU until they finish, so only built
// sessions are ever ordered, weighed or evicted.
//
// Eviction is by entry count and by estimated bytes: every session's
// footprint (problem encoding + learnt-clause database) is charged against
// the pool budget and re-read after each use, so a session whose learnt DB
// balloons pushes the pool over budget and gets colder entries — or
// itself — evicted. Eviction closes the session even while holders are
// mid-sweep: Close never blocks, the holder's next query observes
// session.ErrClosed and degrades to cold solves, never a wrong answer.
type sessionPool struct {
	mu         sync.Mutex
	maxEntries int
	maxBytes   int64
	live       *lru.LRU[string, *poolEntry] // built sessions, weighed by footprint
	building   map[string]*poolEntry        // single-flight builds in progress
	holds      int                          // acquired sessions not yet released

	met *metrics
}

type poolEntry struct {
	key string
	// ready is closed when the single-flight build completes (sess or err
	// set); waiters block on it without holding the pool lock.
	ready chan struct{}
	sess  *session.Session
	err   error
}

// newSessionPool sizes the pool; maxEntries <= 0 disables pooling (every
// acquire builds a private session).
func newSessionPool(maxEntries int, maxBytes int64, met *metrics) *sessionPool {
	return &sessionPool{
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		live:       lru.New[string, *poolEntry](),
		building:   make(map[string]*poolEntry),
		met:        met,
	}
}

// acquire returns a warm session for key, building one with build on a
// miss. hit reports whether an already-built pooled session answered.
// The returned release must be called exactly once when the caller is done
// with the session (it re-reads the footprint and triggers eviction).
// A nil session with nil error means "sweep cold" (build found the
// program cannot share an encoding); any build error is the caller's to
// surface.
func (p *sessionPool) acquire(ctx context.Context, key string, build func() (*session.Session, error)) (sess *session.Session, release func(), hit bool, err error) {
	noop := func() {}
	if p.maxEntries <= 0 {
		// Pooling disabled: a private session still wins within one sweep
		// (horizons share the encoding) but is never reused across requests.
		s, err := build()
		return s, noop, false, err
	}

	p.mu.Lock()
	if ent, ok := p.live.Get(key); ok {
		release := p.holdLocked(ent)
		p.mu.Unlock()
		p.met.sessionHits.Add(1)
		return ent.sess, release, true, nil
	}
	if ent, ok := p.building[key]; ok {
		p.mu.Unlock()
		select {
		case <-ent.ready:
		case <-ctx.Done():
			return nil, noop, false, ctx.Err()
		}
		if ent.sess == nil {
			// The build we waited on failed or chose a cold sweep; it
			// never entered the pool.
			return nil, noop, false, ent.err
		}
		p.mu.Lock()
		release := p.holdLocked(ent)
		p.mu.Unlock()
		p.met.sessionHits.Add(1)
		return ent.sess, release, true, nil
	}

	// Miss: register the build so concurrent requesters for the same key
	// wait on us, then build outside the lock.
	ent := &poolEntry{key: key, ready: make(chan struct{})}
	p.building[key] = ent
	p.mu.Unlock()
	p.met.sessionMisses.Add(1)

	s, berr := build()

	p.mu.Lock()
	delete(p.building, key)
	ent.sess, ent.err = s, berr
	release = noop
	if s != nil {
		p.live.Add(key, ent, s.Footprint())
		p.evictLocked()
		release = p.holdLocked(ent)
	}
	p.mu.Unlock()
	close(ent.ready)
	return s, release, false, berr
}

// holdLocked counts one holder of ent and returns its release.
func (p *sessionPool) holdLocked(ent *poolEntry) func() {
	p.holds++
	return func() { p.release(ent) }
}

// release drops one holder and re-accounts the session's footprint (the
// learnt DB grew while the holder queried), unless the session has since
// been evicted.
func (p *sessionPool) release(ent *poolEntry) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.holds--
	if cur, ok := p.live.Peek(ent.key); ok && cur == ent {
		p.live.Reweigh(ent.key, ent.sess.Footprint())
		p.evictLocked()
	}
}

// evictLocked enforces both budgets, oldest-first. Evicted sessions are
// closed immediately — holders mid-sweep see ErrClosed on their next
// query and degrade to cold solves. A single session over the whole byte
// budget is evicted too: better an occasional cold rebuild than unbounded
// learnt-clause growth.
func (p *sessionPool) evictLocked() {
	for p.live.Len() > p.maxEntries {
		p.evictOldestLocked("entries")
	}
	for p.maxBytes > 0 && p.live.Weight() > p.maxBytes {
		p.evictOldestLocked("memory")
	}
}

func (p *sessionPool) evictOldestLocked(reason string) {
	_, ent, _ := p.live.RemoveOldest()
	ent.sess.Close()
	p.met.recordSessionEviction(reason)
}

// stats reports the pool's live-entry count and accounted bytes.
func (p *sessionPool) stats() (live int, bytes int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.live.Len(), p.live.Weight()
}

// closeAll evicts everything (shutdown).
func (p *sessionPool) closeAll() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		_, ent, ok := p.live.RemoveOldest()
		if !ok {
			return
		}
		ent.sess.Close()
	}
}

// Package lru is a small weight-accounted least-recently-used index: the
// one recency list behind the service's result cache, its warm-session
// pool and the durable result store. It only orders entries and sums
// their weights; every caller keeps its own lock and its own eviction
// policy (entry count, byte budget, what to close or delete on the way
// out) by removing the oldest entries itself. An LRU is not safe for
// concurrent use.
package lru

import "container/list"

// LRU maps keys to values in recency order, most recently used first, and
// keeps the running sum of the entries' weights.
type LRU[K comparable, V any] struct {
	order  *list.List // front = most recently used; values are *entry[K, V]
	index  map[K]*list.Element
	weight int64
}

type entry[K comparable, V any] struct {
	key    K
	val    V
	weight int64
}

// New returns an empty LRU.
func New[K comparable, V any]() *LRU[K, V] {
	return &LRU[K, V]{order: list.New(), index: make(map[K]*list.Element)}
}

// Get returns the value under key and marks it most recently used.
func (l *LRU[K, V]) Get(key K) (V, bool) {
	el, ok := l.index[key]
	if !ok {
		var zero V
		return zero, false
	}
	l.order.MoveToFront(el)
	return el.Value.(*entry[K, V]).val, true
}

// Peek returns the value under key without touching its recency.
func (l *LRU[K, V]) Peek(key K) (V, bool) {
	el, ok := l.index[key]
	if !ok {
		var zero V
		return zero, false
	}
	return el.Value.(*entry[K, V]).val, true
}

// Add stores val under key with the given weight and marks it most
// recently used, replacing (and re-weighing) any existing entry.
func (l *LRU[K, V]) Add(key K, val V, weight int64) {
	if el, ok := l.index[key]; ok {
		e := el.Value.(*entry[K, V])
		l.weight += weight - e.weight
		e.val, e.weight = val, weight
		l.order.MoveToFront(el)
		return
	}
	l.index[key] = l.order.PushFront(&entry[K, V]{key: key, val: val, weight: weight})
	l.weight += weight
}

// Reweigh changes the weight of the entry under key without touching its
// recency, reporting whether the key was present.
func (l *LRU[K, V]) Reweigh(key K, weight int64) bool {
	el, ok := l.index[key]
	if !ok {
		return false
	}
	e := el.Value.(*entry[K, V])
	l.weight += weight - e.weight
	e.weight = weight
	return true
}

// Remove deletes the entry under key, returning its value.
func (l *LRU[K, V]) Remove(key K) (V, bool) {
	el, ok := l.index[key]
	if !ok {
		var zero V
		return zero, false
	}
	return l.remove(el).val, true
}

// RemoveOldest deletes the least recently used entry, returning it.
func (l *LRU[K, V]) RemoveOldest() (K, V, bool) {
	el := l.order.Back()
	if el == nil {
		var (
			k K
			v V
		)
		return k, v, false
	}
	e := l.remove(el)
	return e.key, e.val, true
}

func (l *LRU[K, V]) remove(el *list.Element) *entry[K, V] {
	e := l.order.Remove(el).(*entry[K, V])
	delete(l.index, e.key)
	l.weight -= e.weight
	return e
}

// Len is the number of entries.
func (l *LRU[K, V]) Len() int { return l.order.Len() }

// Weight is the sum of the entries' weights.
func (l *LRU[K, V]) Weight() int64 { return l.weight }

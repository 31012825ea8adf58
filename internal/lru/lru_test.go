package lru

import (
	"slices"
	"testing"
)

// oldestFirst drains l and returns its keys least recently used first.
func oldestFirst(l *LRU[string, int]) []string {
	var keys []string
	for {
		k, _, ok := l.RemoveOldest()
		if !ok {
			return keys
		}
		keys = append(keys, k)
	}
}

func TestRecencyOrder(t *testing.T) {
	l := New[string, int]()
	l.Add("a", 1, 0)
	l.Add("b", 2, 0)
	l.Add("c", 3, 0)
	if v, ok := l.Get("a"); !ok || v != 1 {
		t.Fatalf("Get(a) = %d, %v", v, ok)
	}
	// Peek must not touch recency; Add of an existing key must.
	if v, ok := l.Peek("b"); !ok || v != 2 {
		t.Fatalf("Peek(b) = %d, %v", v, ok)
	}
	l.Add("c", 30, 0)
	if _, ok := l.Get("missing"); ok {
		t.Error("Get of a missing key reported a hit")
	}
	if got, want := oldestFirst(l), []string{"b", "a", "c"}; !slices.Equal(got, want) {
		t.Errorf("eviction order = %v, want %v", got, want)
	}
	if l.Len() != 0 {
		t.Errorf("len after drain = %d", l.Len())
	}
	if _, _, ok := l.RemoveOldest(); ok {
		t.Error("RemoveOldest on an empty LRU reported an entry")
	}
}

func TestWeightAccounting(t *testing.T) {
	l := New[string, int]()
	l.Add("a", 1, 10)
	l.Add("b", 2, 5)
	if l.Weight() != 15 || l.Len() != 2 {
		t.Fatalf("after add: weight=%d len=%d, want 15/2", l.Weight(), l.Len())
	}
	l.Add("a", 1, 7) // replacing re-weighs
	if l.Weight() != 12 {
		t.Errorf("after replace: weight=%d, want 12", l.Weight())
	}
	if !l.Reweigh("b", 20) || l.Weight() != 27 {
		t.Errorf("after reweigh: weight=%d, want 27", l.Weight())
	}
	if l.Reweigh("missing", 99) || l.Weight() != 27 {
		t.Errorf("reweigh of a missing key changed the total: %d", l.Weight())
	}
	// Reweigh leaves recency alone: a is still the newest.
	if k, _, _ := l.RemoveOldest(); k != "b" {
		t.Errorf("oldest = %q, want b", k)
	}
	if l.Weight() != 7 {
		t.Errorf("after RemoveOldest: weight=%d, want 7", l.Weight())
	}
	if v, ok := l.Remove("a"); !ok || v != 1 {
		t.Errorf("Remove(a) = %d, %v", v, ok)
	}
	if _, ok := l.Remove("a"); ok {
		t.Error("second Remove(a) reported a hit")
	}
	if l.Weight() != 0 || l.Len() != 0 {
		t.Errorf("after remove: weight=%d len=%d, want 0/0", l.Weight(), l.Len())
	}
}

// TestOldestFirstSeeding pins how the durable store rebuilds recency
// from file mtimes: adding entries oldest first leaves the newest most
// recently used, so eviction replays the original order.
func TestOldestFirstSeeding(t *testing.T) {
	byMtime := []string{"old", "mid", "new"}
	l := New[string, int]()
	for i, k := range byMtime {
		l.Add(k, i, int64(i+1))
	}
	if l.Weight() != 6 {
		t.Errorf("weight = %d, want 6", l.Weight())
	}
	if got := oldestFirst(l); !slices.Equal(got, byMtime) {
		t.Errorf("eviction order = %v, want %v", got, byMtime)
	}
}

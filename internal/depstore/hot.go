// In-memory hot-record tier: a small bounded LRU of validated
// payloads in front of the disk tier, so a record served repeatedly —
// the daemon answering the same warm fleet, a prefetched corpus being
// consumed, a remote-only client re-reading what it just fetched —
// skips the open/parse/checksum path after the first load.
//
// Only validated payloads enter the tier (a local hit, a remote hit,
// a prefetched batch record, or this process's own Put), so a hot
// answer is always a byte-identical replay of a disk- or wire-valid
// record. The tier is deliberately oblivious to on-disk churn: a
// record Evict removed (or Scrub quarantined under a different key's
// corruption) can keep answering from memory until it ages out —
// sound for a content-addressed cache, where a key's payload never
// changes, only appears or disappears. One visible consequence: a
// hot-served Get skips the disk tier's Chtimes LRU touch, so a
// record can look Evict-cold while being memory-hot; the worst case
// is an eviction the hot tier papers over until the entry rotates
// out.

package depstore

import (
	"container/list"
	"sync"
)

// DefaultHotRecords is the hot-tier capacity the CLIs and the daemon
// use (Options.HotRecords). It comfortably covers a whole corpus's
// record set (scenario + taint records) while bounding the daemon's
// resident cache to tens of megabytes in the worst case.
const DefaultHotRecords = 512

// hotTier is the LRU. All methods are safe for concurrent use.
type hotTier struct {
	mu  sync.Mutex
	cap int
	ll  *list.List // front = most recently used
	m   map[Ref]*list.Element
}

type hotEntry struct {
	ref     Ref
	payload []byte
}

func newHotTier(capacity int) *hotTier {
	return &hotTier{
		cap: capacity,
		ll:  list.New(),
		m:   make(map[Ref]*list.Element, capacity),
	}
}

// get returns the cached payload and refreshes its recency. The
// returned slice is shared: every consumer of store payloads treats
// them as read-only (they are decode-once inputs), which is what makes
// sharing sound.
func (h *hotTier) get(kind, key string) ([]byte, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	el, ok := h.m[Ref{Kind: kind, Key: key}]
	if !ok {
		return nil, false
	}
	h.ll.MoveToFront(el)
	return el.Value.(*hotEntry).payload, true
}

// add inserts (or refreshes) a record, evicting from the cold end past
// capacity.
func (h *hotTier) add(kind, key string, payload []byte) {
	ref := Ref{Kind: kind, Key: key}
	h.mu.Lock()
	defer h.mu.Unlock()
	if el, ok := h.m[ref]; ok {
		el.Value.(*hotEntry).payload = payload
		h.ll.MoveToFront(el)
		return
	}
	h.m[ref] = h.ll.PushFront(&hotEntry{ref: ref, payload: payload})
	for h.ll.Len() > h.cap {
		tail := h.ll.Back()
		h.ll.Remove(tail)
		delete(h.m, tail.Value.(*hotEntry).ref)
	}
}

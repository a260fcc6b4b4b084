package tcg

// LLSCTable is the exclusive-access monitor consulted by LL/SC and stores:
// the global LL/SC hash table the paper keeps per DQEMU instance (§4.4). LL
// records (thread, address); every store probes the table while it is
// non-empty; SC succeeds only if its thread's entry is still present; page
// invalidations conservatively kill entries, which may fail an SC that would
// have succeeded — a safe false positive. It is not safe for concurrent use;
// each node's execution is single-goroutine, and cross-node effects arrive as
// InvalidatePage calls from the same goroutine.
type LLSCTable struct {
	entries map[uint64]int64 // exclusive address -> owning thread
	// FalseFailures counts SC failures induced by conservative page-level
	// invalidation rather than an observed conflicting store.
	FalseFailures uint64
}

// NewLLSCTable returns an empty table.
func NewLLSCTable() *LLSCTable {
	return &LLSCTable{entries: map[uint64]int64{}}
}

// OnLL records an exclusive load by tid at (post-remap) address addr. A
// second LL to the same address steals the entry, as on real hardware where
// the monitor tracks one reservation.
func (t *LLSCTable) OnLL(tid int64, addr uint64) {
	t.entries[addr] = tid
}

// OnStore reports a committed store that may break other threads'
// exclusivity: a store to a monitored address from a different thread clears
// the reservation. Callers skip it while the table is Empty.
func (t *LLSCTable) OnStore(tid int64, addr uint64) {
	if owner, ok := t.entries[addr]; ok && owner != tid {
		delete(t.entries, addr)
	}
}

// ValidateSC checks and consumes tid's reservation for addr, returning
// whether the store-conditional may proceed.
func (t *LLSCTable) ValidateSC(tid int64, addr uint64) bool {
	owner, ok := t.entries[addr]
	if !ok || owner != tid {
		return false
	}
	delete(t.entries, addr)
	return true
}

// Empty reports whether the table has no live entries (the fast path that
// lets translated stores skip instrumentation, §4.4).
func (t *LLSCTable) Empty() bool { return len(t.entries) == 0 }

// InvalidatePage kills every reservation on the given page. The cluster
// calls this when the coherence protocol invalidates a local page (§4.4):
// "if the page containing the exclusive variable is updated on another
// node, we simply consider the invalid flag has been set".
func (t *LLSCTable) InvalidatePage(pageNo uint64, pageSize int) {
	if len(t.entries) == 0 {
		return
	}
	lo := pageNo * uint64(pageSize)
	hi := lo + uint64(pageSize)
	for addr := range t.entries {
		if addr >= lo && addr < hi {
			delete(t.entries, addr)
			t.FalseFailures++
		}
	}
}

// DropThread removes every reservation held by tid (used when a thread
// migrates away from the node).
func (t *LLSCTable) DropThread(tid int64) {
	for addr, owner := range t.entries {
		if owner == tid {
			delete(t.entries, addr)
		}
	}
}

// Len returns the number of live reservations.
func (t *LLSCTable) Len() int { return len(t.entries) }

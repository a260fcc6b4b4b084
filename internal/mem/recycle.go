package mem

import "dqemu/internal/recycle"

// maxRecycledPages caps the page recycler at 16 MiB. The most it holds on
// the benchmark's workloads is 1,705 pages, after a shared_cluster run.
const maxRecycledPages = 4096

// pagePool recycles DefaultPageSize buffers across runs: a finished run's
// pages, twins and snapshots come back through Release and FreePageBuf, and
// the next run in the process draws them through NewPageBuf. Every buffer in
// it is zero.
var pagePool = recycle.New[*[DefaultPageSize]byte]("mem.pages", maxRecycledPages)

// NewPageBuf returns a zero buffer of size bytes: a recycled one when size
// is DefaultPageSize and the recycler has one, a fresh allocation
// otherwise.
func NewPageBuf(size int) []byte {
	if size == DefaultPageSize {
		if b, ok := pagePool.Get(); ok {
			return b[:]
		}
	}
	return make([]byte, size)
}

// FreePageBuf clears buf and hands it to the recycler. buf must be a whole
// buffer from NewPageBuf that nothing else will read or write again; one
// of any other size, or one the full recycler refuses, is left to the
// garbage collector.
func FreePageBuf(buf []byte) {
	if len(buf) != DefaultPageSize || cap(buf) != DefaultPageSize {
		return
	}
	clear(buf)
	pagePool.Put((*[DefaultPageSize]byte)(buf))
}

// Release hands every resident and retired page buffer to the recycler,
// cleared, and leaves the Space with no page. Nothing may still point into
// a page: the caller releases a Space when the run that used it is over.
func (s *Space) Release() {
	for no, p := range s.pages {
		FreePageBuf(p.data)
		delete(s.pages, no)
	}
	for i, p := range s.free {
		FreePageBuf(p.data)
		s.free[i] = nil
	}
	s.free = s.free[:0]
	s.tlb = [tlbSize]tlbEntry{}
	s.bumpEpoch()
}

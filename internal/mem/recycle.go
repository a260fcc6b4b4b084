package mem

import "sync"

// pagePool recycles DefaultPageSize buffers across runs: a finished run's
// pages, twins and snapshots come back through Release and FreePageBuf, and
// the next run in the process draws them through NewPageBuf. A sync.Pool,
// so the garbage collector bounds what it keeps and no cap has to be
// chosen. Every buffer in it is zero.
var pagePool sync.Pool // of *[DefaultPageSize]byte

// NewPageBuf returns a zero buffer of size bytes: a recycled one when size
// is DefaultPageSize and the recycler has one, a fresh allocation
// otherwise.
func NewPageBuf(size int) []byte {
	if size == DefaultPageSize {
		if b, _ := pagePool.Get().(*[DefaultPageSize]byte); b != nil {
			return b[:]
		}
	}
	return make([]byte, size)
}

// FreePageBuf clears buf and hands it to the recycler. buf must be a whole
// buffer from NewPageBuf that nothing else will read or write again; one
// of any other size is left to the garbage collector.
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

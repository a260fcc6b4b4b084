package mem

import (
	"bytes"
	"runtime"
	"testing"

	"dqemu/internal/image"
	"dqemu/internal/recycle"
)

func TestSplitFactorsTwoAndEight(t *testing.T) {
	for _, factor := range []int{2, 8} {
		s := NewSpace(0)
		s.SetPerm(1, PermReadWrite)
		for i := 0; i < 4096; i++ {
			s.Store(0x1000+uint64(i), uint64(i&0xff), 1)
		}
		orig := append([]byte(nil), s.PageData(1)...)
		shadows := make([]uint64, factor)
		base := uint64(image.ShadowBase) >> 12
		for i := range shadows {
			shadows[i] = base + uint64(i)
		}
		if err := s.AddRemap(1, shadows); err != nil {
			t.Fatalf("factor %d: %v", factor, err)
		}
		part := 4096 / factor
		for i, sh := range shadows {
			data := make([]byte, 4096)
			copy(data[i*part:(i+1)*part], orig[i*part:(i+1)*part])
			s.InstallPage(sh, data, PermReadWrite)
		}
		for i := 0; i < 4096; i += 97 {
			v, f := s.Load(0x1000+uint64(i), 1)
			if f != nil || v != uint64(i&0xff) {
				t.Fatalf("factor %d addr %#x: %v %v", factor, 0x1000+i, v, f)
			}
		}
	}
}

func TestLoadStoreOnSplitBoundaries(t *testing.T) {
	s := NewSpace(0)
	s.SetPerm(1, PermReadWrite)
	base := uint64(image.ShadowBase) >> 12
	shadows := []uint64{base, base + 1}
	s.AddRemap(1, shadows)
	for _, sh := range shadows {
		s.InstallPage(sh, nil, PermReadWrite)
	}
	// 8-byte store exactly straddling the two halves (offset 2044..2051).
	if f := s.Store(0x1000+2044, 0xAABBCCDDEEFF0011, 8); f != nil {
		t.Fatal(f)
	}
	v, f := s.Load(0x1000+2044, 8)
	if f != nil || v != 0xAABBCCDDEEFF0011 {
		t.Errorf("straddle: %#x %v", v, f)
	}
	// The bytes must land in the right halves.
	if s.PageData(shadows[0])[2047] == 0 || s.PageData(shadows[1])[2048] == 0 {
		t.Error("bytes not distributed across shadow halves")
	}
}

func TestEnsurePageIdempotent(t *testing.T) {
	s := NewSpace(0)
	d1 := s.EnsurePage(5, PermRead)
	d1[0] = 42
	d2 := s.EnsurePage(5, PermReadWrite) // existing page: perm unchanged
	if d2[0] != 42 {
		t.Error("EnsurePage replaced existing data")
	}
	if s.PermOf(5) != PermRead {
		t.Error("EnsurePage changed permission of existing page")
	}
}

func TestPermString(t *testing.T) {
	if PermNone.String() != "I" || PermRead.String() != "S" || PermReadWrite.String() != "M" {
		t.Error("perm names")
	}
}

func TestInstallImagePartialPages(t *testing.T) {
	im := image.New()
	// Two segments sharing page 1 (0x1000): the second install must not
	// clobber the first's bytes.
	im.AddSegment(image.Segment{Name: "text", Addr: 0x1000, Data: []byte{1, 2, 3, 4}})
	im.AddSegment(image.Segment{Name: "rodata", Addr: 0x1100, Data: []byte{9, 9}})
	s := NewSpace(0)
	InstallImage(s, im, PermRead, PermReadWrite)
	if v, _ := s.Load(0x1000, 1); v != 1 {
		t.Errorf("text byte = %d", v)
	}
	if v, _ := s.Load(0x1100, 1); v != 9 {
		t.Errorf("rodata byte = %d", v)
	}
}

func TestInstallImageSkipsPermNone(t *testing.T) {
	im := image.New()
	im.AddSegment(image.Segment{Name: "data", Addr: 0x2000, Data: []byte{7}, Writable: true})
	s := NewSpace(0)
	InstallImage(s, im, PermRead, PermNone) // slave-style: no writable data
	if s.ResidentPages() != 0 {
		t.Errorf("resident = %d", s.ResidentPages())
	}
}

func TestFaultErrorString(t *testing.T) {
	f := &Fault{Addr: 0x1234, Page: 1, Write: true}
	if f.Error() == "" || (&Fault{Addr: 1}).Error() == "" {
		t.Error("fault strings empty")
	}
}

func TestWriteBytesAppliesRemap(t *testing.T) {
	s := NewSpace(0)
	base := uint64(image.ShadowBase) >> 12
	s.AddRemap(1, []uint64{base, base + 1, base + 2, base + 3})
	if err := s.WriteBytes(0x1000+1500, []byte{0xAB}); err != nil {
		t.Fatal(err)
	}
	// 1500 is in quarter 1.
	if s.PageData(base + 1)[1500] != 0xAB {
		t.Error("WriteBytes ignored remap")
	}
	buf := make([]byte, 1)
	if err := s.ReadBytes(0x1000+1500, buf); err != nil || buf[0] != 0xAB {
		t.Errorf("ReadBytes through remap: %v %v", buf, err)
	}
}

// TestDroppedBufferReuse: DropPage keeps the buffer for the next page the
// Space creates. The next page must not show the old one's bytes, whichever
// call creates it; nothing cached from before the drop may be used; and the
// kept buffer is not a resident page.
func TestDroppedBufferReuse(t *testing.T) {
	const ps = 256
	dirty := bytes.Repeat([]byte{0xaa}, ps)
	for name, create := range map[string]func(s *Space){
		"InstallPage, short data": func(s *Space) { s.InstallPage(2, []byte{1, 2, 3}, PermReadWrite) },
		"EnsurePage":              func(s *Space) { s.EnsurePage(2, PermReadWrite)[0] = 1 },
		"SetPerm":                 func(s *Space) { s.SetPerm(2, PermReadWrite) },
	} {
		s := NewSpace(ps)
		s.InstallPage(1, dirty, PermReadWrite)
		var ent AccelEntry
		if v, f := s.Load(ps, 1); f != nil || v != 0xaa || !s.AccelFill(&ent, 1, true) {
			t.Fatalf("%s: set-up: load %#x fault %v", name, v, f)
		}
		old := s.PageData(1)
		s.DropPage(1)
		if s.ResidentPages() != 0 || s.PageData(1) != nil || s.PermOf(1) != PermNone {
			t.Errorf("%s: dropped page still resident", name)
		}
		s.ForEachPage(func(no uint64, _ Perm) { t.Errorf("%s: dropped page %d visited", name, no) })
		if _, f := s.Load(ps, 1); f == nil {
			t.Errorf("%s: load from the dropped page did not fault", name)
		}
		create(s)
		now := s.PageData(2)
		if &now[0] != &old[0] {
			t.Errorf("%s: the dropped buffer was not reused", name)
		}
		for i, b := range now[3:] {
			if b != 0 {
				t.Fatalf("%s: byte %d of the new page is %#x: old content shows", name, i+3, b)
			}
		}
		if ent.Epoch == s.Epoch() {
			t.Errorf("%s: an inline-TLB entry into the reused buffer is still current", name)
		}
		if _, f := s.Load(ps, 1); f == nil {
			t.Errorf("%s: page 1 readable through page 2's buffer", name)
		}
		if v, f := s.Load(2*ps+1, 1); f != nil || (v != 0 && v != 2) {
			t.Errorf("%s: load from the new page = %#x, fault %v", name, v, f)
		}
	}
}

func TestDropInstallCycleDoesNotAllocate(t *testing.T) {
	s := NewSpace(0)
	data := make([]byte, DefaultPageSize)
	s.InstallPage(7, data, PermRead)
	if n := testing.AllocsPerRun(100, func() {
		s.DropPage(7)
		s.InstallPage(7, data, PermRead)
	}); n != 0 {
		t.Errorf("DropPage+InstallPage allocates %v times per cycle, want 0", n)
	}
}

// TestAddRemapRecyclesOriginal: the split page's buffer serves the next page
// the Space creates, zeroed.
func TestAddRemapRecyclesOriginal(t *testing.T) {
	s := NewSpace(256)
	s.InstallPage(1, bytes.Repeat([]byte{0xaa}, 256), PermReadWrite)
	old := s.PageData(1)
	if err := s.AddRemap(1, []uint64{0x100, 0x101}); err != nil {
		t.Fatal(err)
	}
	if got := s.EnsurePage(0x100, PermRead); &got[0] != &old[0] || !bytes.Equal(got, make([]byte, 256)) {
		t.Error("first shadow is not the original's buffer, zeroed")
	}
}

// TestAllocPagesSurviveCollections: a page handed back to the recycler is
// drawn again, zero, whatever the garbage collector did in between. (While
// the recycler was a sync.Pool, two collections emptied it.)
func TestAllocPagesSurviveCollections(t *testing.T) {
	recycle.Drain()
	buf := NewPageBuf(DefaultPageSize)
	buf[9] = 0xaa
	FreePageBuf(buf)
	if n := testing.AllocsPerRun(20, func() {
		runtime.GC()
		runtime.GC()
		b := NewPageBuf(DefaultPageSize)
		if &b[0] != &buf[0] || b[9] != 0 {
			t.Fatal("the recycled page came back as another buffer, or not zero")
		}
		FreePageBuf(b)
	}); n != 0 {
		t.Errorf("a page recycled across collections allocates %v times, want 0", n)
	}
}

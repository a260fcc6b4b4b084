package mem

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
)

// The byte-wise loops ReadBytes, WriteBytes and ReadCString were before they
// copied by span: one Translate and one map probe per byte. They stay here as
// the reference the span copies are compared with.

func refReadBytes(s *Space, addr uint64, buf []byte) error {
	for i := range buf {
		ba := s.Translate(addr + uint64(i))
		p := s.pages[ba>>s.pageShift]
		if p == nil {
			return &Fault{Addr: ba, Page: ba >> s.pageShift}
		}
		buf[i] = p.data[ba&uint64(s.pageSize-1)]
	}
	return nil
}

func refWriteBytes(s *Space, addr uint64, buf []byte) error {
	for i := range buf {
		ba := s.Translate(addr + uint64(i))
		data := s.EnsurePage(ba>>s.pageShift, PermReadWrite)
		data[ba&uint64(s.pageSize-1)] = buf[i]
	}
	return nil
}

func refReadCString(s *Space, addr uint64, max int) (string, error) {
	var out []byte
	var b [1]byte
	for i := 0; i < max; i++ {
		if err := refReadBytes(s, addr+uint64(i), b[:]); err != nil {
			return "", err
		}
		if b[0] == 0 {
			return string(out), nil
		}
		out = append(out, b[0])
	}
	return string(out), fmt.Errorf("mem: unterminated string at %#x", addr)
}

// spanSpace builds one of two identical spaces: pages 1 and 2 plain, page 3
// split in two and page 4 in eight (all shadows resident, holding a byte
// pattern that differs per shadow), page 5 absent, page 6 split with its
// second shadow absent.
func spanSpace(t *testing.T) *Space {
	t.Helper()
	s := NewSpace(0)
	fill := func(pn uint64) {
		data := s.EnsurePage(pn, PermRead)
		for i := range data {
			data[i] = byte(1 + (uint64(i)*7+pn*13)%250) // never NUL
		}
	}
	fill(1)
	fill(2)
	split := func(orig, base uint64, n int, skip int) {
		shadows := make([]uint64, n)
		for i := range shadows {
			shadows[i] = base + uint64(i)
		}
		if err := s.AddRemap(orig, shadows); err != nil {
			t.Fatal(err)
		}
		for i, sh := range shadows {
			if i != skip {
				fill(sh)
			}
		}
	}
	split(3, 0x100, 2, -1)
	split(4, 0x110, 8, -1)
	split(6, 0x120, 2, 1)
	return s
}

func sameErr(a, b error) bool {
	var fa, fb *Fault
	if errors.As(a, &fa) != errors.As(b, &fb) {
		return false
	}
	if fa != nil {
		return *fa == *fb
	}
	return (a == nil) == (b == nil) && (a == nil || a.Error() == b.Error())
}

// snapshot is every resident page's number, permission and content.
func snapshot(s *Space) map[uint64]string {
	out := map[uint64]string{}
	s.ForEachPage(func(pn uint64, perm Perm) {
		out[pn] = perm.String() + string(s.PageData(pn))
	})
	return out
}

func TestSpanCopiesMatchBytewise(t *testing.T) {
	const ps = DefaultPageSize
	cases := []struct {
		name string
		addr uint64
		n    int
	}{
		{"zero length", 1 * ps, 0},
		{"zero length in an absent page", 5 * ps, 0},
		{"inside one page", 1*ps + 10, 100},
		{"whole page", 1 * ps, ps},
		{"across two plain pages", 1*ps + ps - 5, 64},
		{"plain into split x2", 2*ps + ps - 9, 40},
		{"inside one part of split x2", 3*ps + 8, 1000},
		{"across the part boundary of split x2", 3*ps + ps/2 - 3, 17},
		{"all of split x2 into split x8", 3 * ps, ps + 700},
		{"across every part of split x8", 4*ps + 1, ps - 2},
		{"split x8 into an absent page", 4*ps + ps - 20, 64},
		{"plain run ending in an absent page", 4*ps + ps - 1, 2},
		{"starting in an absent page", 5*ps + 4, 8},
		{"split page whose second part is absent", 6*ps + ps/2 - 6, 12},
		{"one byte before an absent part", 6*ps + ps/2 - 1, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, want := spanSpace(t), spanSpace(t)
			gb, wb := make([]byte, tc.n), make([]byte, tc.n)
			ge, we := got.ReadBytes(tc.addr, gb), refReadBytes(want, tc.addr, wb)
			if !sameErr(ge, we) || string(gb) != string(wb) {
				t.Errorf("ReadBytes: got %v %x\nwant %v %x", ge, gb, we, wb)
			}

			// Strings: terminated inside the range, and unterminated at max.
			for _, max := range []int{tc.n, tc.n / 2, 0} {
				gs, ge := got.ReadCString(tc.addr, max)
				ws, we := refReadCString(want, tc.addr, max)
				if !sameErr(ge, we) || gs != ws {
					t.Errorf("ReadCString(max %d): got %q %v\nwant %q %v", max, gs, ge, ws, we)
				}
			}
			if tc.n > 3 && got.WriteBytes(tc.addr+uint64(tc.n)-3, []byte{0}) == nil {
				refWriteBytes(want, tc.addr+uint64(tc.n)-3, []byte{0})
				gs, ge := got.ReadCString(tc.addr, tc.n)
				ws, we := refReadCString(want, tc.addr, tc.n)
				if !sameErr(ge, we) || gs != ws {
					t.Errorf("ReadCString(terminated): got %q %v\nwant %q %v", gs, ge, ws, we)
				}
			}

			// Writes create what is absent, so both spaces must end up with
			// the same pages, permissions and bytes.
			src := make([]byte, tc.n)
			for i := range src {
				src[i] = byte(i*31 + 5)
			}
			ge, we = got.WriteBytes(tc.addr, src), refWriteBytes(want, tc.addr, src)
			if !sameErr(ge, we) || !reflect.DeepEqual(snapshot(got), snapshot(want)) {
				t.Errorf("WriteBytes: spaces differ (errors %v, %v)", ge, we)
			}
		})
	}
}

package recycle

import "testing"

// TestListCapAndDrain: a list hands back the value put last, refuses what
// would take it past its cap, and Drain empties it.
func TestListCapAndDrain(t *testing.T) {
	l := New[int]("test", 2)
	if _, ok := l.Get(); ok {
		t.Fatal("a new list handed out a value")
	}
	for v, want := range []bool{true, true, false} {
		if got := l.Put(v); got != want {
			t.Errorf("Put(%d) = %v, want %v", v, got, want)
		}
	}
	found := false
	for _, h := range Census() {
		if h.Name == "test" {
			found = true
			if h.Len != 2 || h.Max != 2 {
				t.Errorf("census %+v, want 2 of 2", h)
			}
		}
	}
	if !found {
		t.Error("the list is not in the census")
	}
	if v, ok := l.Get(); !ok || v != 1 {
		t.Errorf("Get = %d, %v; want 1, true", v, ok)
	}
	Drain()
	if _, ok := l.Get(); ok {
		t.Error("a drained list handed out a value")
	}
}

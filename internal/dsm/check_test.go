package dsm

import (
	"strings"
	"testing"

	"dqemu/internal/mem"
)

// TestCheckNamesEachViolation builds each violation by hand on page 7 of a
// master and two slaves: Check must name its page, node and rule, and
// accept the clean state.
func TestCheckNamesEachViolation(t *testing.T) {
	const I, S, M = mem.PermNone, mem.PermRead, mem.PermReadWrite
	cases := []struct {
		name  string
		entry *entry      // page 7's directory entry; nil: none
		perms [3]mem.Perm // page 7 on nodes 0, 1 and 2
		want  []string
	}{
		{"clean", &entry{owner: 1}, [3]mem.Perm{I, M, I}, nil},
		{"clean shared", &entry{owner: NoOwner, sharers: NodeSet(0).Add(1).Add(2)}, [3]mem.Perm{S, S, S}, nil},
		{"open transaction", &entry{owner: 1, busy: true, acksLeft: 1, pending: make([]Request, 2)}, [3]mem.Perm{I, M, I},
			[]string{"page 0x7: stuck transaction (busy=true acks=1 pending=2)"}},
		{"owner with sharers", &entry{owner: 1, sharers: NodeSet(0).Add(2)}, [3]mem.Perm{I, M, S},
			[]string{"page 0x7: owner 1 coexists with sharers {2}"}},
		{"owner without M", &entry{owner: 2}, [3]mem.Perm{I, I, S},
			[]string{"page 0x7: directory owner 2 holds S, not M"}},
		{"slave M without ownership", &entry{owner: NoOwner}, [3]mem.Perm{I, M, I},
			[]string{"page 0x7: node 1 holds M without ownership (owner -1)"}},
		{"master M under a slave owner", &entry{owner: 2}, [3]mem.Perm{M, I, M},
			[]string{"page 0x7: master holds M but node 2 owns", "page 0x7: multiple writers [0 2]"}},
		{"S missing from sharers", &entry{owner: NoOwner, sharers: NodeSet(0).Add(1)}, [3]mem.Perm{S, S, S},
			[]string{"page 0x7: node 2 holds S copy missing from sharer set {1}"}},
		{"two writers without an entry", nil, [3]mem.Perm{I, M, M},
			[]string{"page 0x7: multiple writers [1 2]"}},
		{"retired", &entry{owner: 1, sharers: NodeSet(0).Add(2), retired: true}, [3]mem.Perm{I, I, S}, nil},
	}
	for _, tc := range cases {
		d := New(&mockEnv{}, nil, nil)
		if tc.entry != nil {
			d.pages[7] = tc.entry
		}
		spaces := make([]*mem.Space, len(tc.perms))
		for node, perm := range tc.perms {
			spaces[node] = mem.NewSpace(4096)
			if perm != I {
				spaces[node].SetPerm(7, perm)
			}
		}
		var got string
		if err := d.Check(spaces); err != nil {
			got = err.Error()
		}
		if want := strings.Join(tc.want, "\n"); got != want {
			t.Errorf("%s: Check said %q, want %q", tc.name, got, want)
		}
	}
}

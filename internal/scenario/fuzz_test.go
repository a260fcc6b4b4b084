package scenario

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"dqemu/internal/netsim"
)

// FuzzScenarioSpec throws hostile bytes at the spec decoder. The contract:
// Decode never panics; anything it accepts re-validates, resolves at both
// scales, encodes to a canonical fixpoint (decode∘encode = identity), and
// carries a fault plan the injector can run.
// Seeds come from the checked-in suites plus the corpus under
// testdata/fuzz/FuzzScenarioSpec/.
func FuzzScenarioSpec(f *testing.F) {
	goldens, _ := filepath.Glob(filepath.Join("testdata", "golden_*.json"))
	for _, p := range append(specPaths(f), goldens...) {
		if data, err := os.ReadFile(p); err == nil {
			f.Add(data)
		}
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"version":2,"name":"x","workload":{"kind":"pi"}}`))
	f.Add([]byte(`{"version":2,"name":"x","workload":{"kind":"pi","args":{"threads":1e99}}}`))
	f.Add([]byte(`{"version":2,"name":"x","workload":{"kind":"pi"},"faults":{"seed":-1,"drop_rate":2}}`))
	f.Add([]byte(`[{"version":2}]`))

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Decode(data)
		if err != nil {
			return // rejected cleanly; that's the common, correct outcome
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("Decode accepted a spec Validate rejects: %v", err)
		}
		if s.Faults.Active() {
			// An accepted plan must not be able to crash the injector.
			inj := netsim.NewInjector(*s.Faults)
			inj.Decide(0, 1, 0)
			inj.Arrive(1, 0)
		}
		cells, err := s.cells()
		if err != nil || len(cells) == 0 || len(cells) > maxCells {
			t.Fatalf("accepted spec expands to %d cells: %v", len(cells), err)
		}
		for _, c := range cells {
			for _, scale := range []Scale{Quick, Smoke} {
				if _, err := c.spec.Workload.resolve(scale, c.spec.Cluster.Slaves); err != nil {
					t.Fatalf("accepted cell %s fails to resolve at %s: %v", c.label(), scale, err)
				}
			}
		}
		var b1 bytes.Buffer
		if err := s.Encode(&b1); err != nil {
			t.Fatalf("encode of accepted spec failed: %v", err)
		}
		s2, err := Decode(b1.Bytes())
		if err != nil {
			t.Fatalf("canonical encoding does not re-decode: %v\n%s", err, b1.Bytes())
		}
		var b2 bytes.Buffer
		if err := s2.Encode(&b2); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
			t.Fatalf("encoding is not a fixpoint:\nfirst:\n%s\nsecond:\n%s", b1.Bytes(), b2.Bytes())
		}
	})
}

package core

import (
	"os"
	"testing"
)

// TestMain runs every test of the package on poisoned frames: a container
// the cluster keeps after its handler returned is filled with poisonByte,
// so a handler that kept a view of a delivered payload reads garbage, and
// the differential and chaos tests see the run go wrong.
func TestMain(m *testing.M) {
	poisonFrames = true
	os.Exit(m.Run())
}

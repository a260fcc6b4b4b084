package server

import (
	"bytes"
	"net/http"
	"os"
	"testing"
	"time"

	"dqemu/internal/core"
	"dqemu/internal/grt"
	"dqemu/internal/live"
	"dqemu/internal/recycle"
)

// TestJobsDoNotSeeEachOthersMemory: a finished job's pages, twins and
// snapshots go to the next job the process runs, so the next job must find
// them as a fresh allocation would give them. On both backends, on one node
// and on three, job B — which reads a malloc'd block, a global array and a
// deep stack frame it never writes — prints after job A filled all three
// with 0xA5 exactly what it prints on memory no job has used.
func TestJobsDoNotSeeEachOthersMemory(t *testing.T) {
	build := func(path string) RunSpec {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		im, err := grt.BuildProgram(path, string(src))
		if err != nil {
			t.Fatal(err)
		}
		return RunSpec{Image: im, Config: live.Config{Core: core.DefaultConfig(), Timeout: 20 * time.Second}}
	}
	a, b := build("testdata/isolation_a.mc"), build("testdata/isolation_b.mc")
	for _, be := range []struct {
		name    string
		backend Backend
	}{{"sim", &SimBackend{}}, {"live", &LiveBackend{}}} {
		for _, slaves := range []int{0, 2} {
			run := func(spec RunSpec) string {
				spec.Core.Slaves = slaves
				// A guest that finds stale memory may spin on it forever.
				cancel := make(chan struct{})
				defer time.AfterFunc(spec.Timeout, func() { close(cancel) }).Stop()
				out, err := be.backend.Run(cancel, spec)
				if err != nil {
					t.Fatalf("%s, %d slaves: %v", be.name, slaves, err)
				}
				return out.Console
			}
			// B's reference run gets memory no job has used.
			recycle.Drain()
			fresh := run(b)
			if fresh != "0\n" {
				t.Fatalf("%s, %d slaves: B alone printed %q, want 0", be.name, slaves, fresh)
			}
			if got := run(a); got != "A\n" {
				t.Fatalf("%s, %d slaves: A printed %q", be.name, slaves, got)
			}
			if got := run(b); got != fresh {
				t.Errorf("%s, %d slaves: B after A printed %q, alone %q", be.name, slaves, got, fresh)
			}
		}
	}
}

// TestFootprintRejected: a job whose read-only segments, copied to every
// node, would take the cluster over image.MaxMemBytes is a 400 at
// admission, before any node is built; on fewer nodes the same program is
// admitted and runs.
func TestFootprintRejected(t *testing.T) {
	_, ts := startServer(t, Options{})
	c := &testClient{t: t, base: ts.URL, tenant: "mallory"}
	const prog = "main:\n\tli a0, 0\n\tret\n\t.rodata\nbig: .space 0x800000\n"
	resp, data := c.req("POST", "/v1/jobs", &JobRequest{Name: "big", Asm: prog, Slaves: 16})
	if resp.StatusCode != http.StatusBadRequest || !bytes.Contains(data, []byte("image.MaxMemBytes")) {
		t.Errorf("16 slaves: HTTP %d %s, want 400 naming image.MaxMemBytes", resp.StatusCode, data)
	}
	st := c.submit(&JobRequest{Name: "big", Asm: prog, Slaves: 1}, http.StatusAccepted)
	if st = c.wait(st.ID); st.State != StateSucceeded {
		t.Fatalf("1 slave: %+v", st)
	}
}

package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dqemu"
	"dqemu/internal/metrics"
	"dqemu/internal/server"
)

// sumSrc is a schedule-independent guest: every worker writes its own slot,
// and main prints the joined sum.
const sumSrc = `
long part[4];
long worker(long idx) {
	long s = 0;
	for (long i = 0; i < 5000; i++) s += (i ^ idx) & 7;
	part[idx] = s;
	return 0;
}
long main() {
	long tids[4];
	for (long i = 0; i < 4; i++) tids[i] = thread_create((long)worker, i);
	long s = 0;
	for (long i = 0; i < 4; i++) { thread_join(tids[i]); s += part[i]; }
	print_long(s);
	print_char('\n');
	return 7;
}`

func writeProg(t *testing.T, src string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "prog.mc")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func runCmd(args ...string) (code int, stdout, stderr string) {
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

func TestSimulatedRunPassesExitCode(t *testing.T) {
	prog := writeProg(t, `long main() { print_str("bye\n"); return 3; }`)
	code, out, errOut := runCmd("-slaves", "1", prog)
	if code != 3 || out != "bye\n" {
		t.Errorf("exit %d stdout %q stderr %q", code, out, errOut)
	}
}

// TestStatsMessageMix: -stats on the simulator lists messages and wire bytes
// for every message kind sent, and the kind rows add up to the network
// totals.
func TestStatsMessageMix(t *testing.T) {
	prog := writeProg(t, sumSrc)
	code, _, errOut := runCmd("-slaves", "2", "-stats", prog)
	if code != 7 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	rows := statsRows(t, errOut)
	var msgs, nbytes int64
	kinds := map[string]bool{}
	for key, v := range rows {
		if kind, ok := strings.CutPrefix(key, "net.by_kind."); ok {
			kinds[kind] = true
			msgs += v
		} else if strings.HasPrefix(key, "net.bytes_by_kind.") {
			nbytes += v
		}
	}
	if rows["net.msgs"] == 0 || msgs != rows["net.msgs"] || nbytes != rows["net.bytes"] {
		t.Errorf("kind rows add up to %d msgs, %d bytes; totals are %d, %d:\n%s",
			msgs, nbytes, rows["net.msgs"], rows["net.bytes"], errOut)
	}
	for _, k := range []string{"page-req", "page-content", "thread-start", "shutdown"} {
		if !kinds[k] {
			t.Errorf("no %s row:\n%s", k, errOut)
		}
	}
}

// statsRows parses -stats output into key -> value.
func statsRows(t *testing.T, out string) map[string]int64 {
	t.Helper()
	_, body, ok := strings.Cut(out, "--- run statistics ---\n")
	if !ok {
		t.Fatalf("no statistics in:\n%s", out)
	}
	rows := map[string]int64{}
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		var key string
		var v int64
		if _, err := fmt.Sscan(line, &key, &v); err != nil {
			t.Fatalf("row %q: %v", line, err)
		}
		rows[key] = v
	}
	return rows
}

// TestRowsAgree: a run's Result rows reach -stats, the -profile JSON and a
// dqemud sim job's result with metrics, each row with the same value there.
func TestRowsAgree(t *testing.T) {
	prog := writeProg(t, sumSrc)
	im, err := dqemu.Load(prog)
	if err != nil {
		t.Fatal(err)
	}
	cfg := dqemu.DefaultConfig()
	cfg.Slaves, cfg.Metrics = 2, true
	res, err := dqemu.Run(im, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := res.Rows("virtual")

	profile := filepath.Join(t.TempDir(), "profile.json")
	code, _, errOut := runCmd("-slaves", "2", "-stats", "-profile", profile, prog)
	if code != 7 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	stats := statsRows(t, errOut)
	data, err := os.ReadFile(profile)
	if err != nil {
		t.Fatal(err)
	}
	var snap metrics.Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}

	srv := server.New(server.Options{Workers: 1})
	ts := httptest.NewServer(srv.Handler())
	defer func() { ts.Close(); srv.Drain(10 * time.Second) }()
	var job server.JobResult
	getJSON := func(method, path string, body any) {
		t.Helper()
		data, _ := json.Marshal(body)
		req, _ := http.NewRequest(method, ts.URL+path, bytes.NewReader(data))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(&job); err != nil || resp.StatusCode >= 300 {
			t.Fatalf("%s %s: HTTP %d, %v", method, path, resp.StatusCode, err)
		}
	}
	getJSON("POST", "/v1/jobs", server.JobRequest{Source: sumSrc, Slaves: 2, Cores: cfg.Cores, Metrics: true})
	getJSON("GET", "/v1/jobs/"+job.ID+"?wait_ms=60000", nil)
	getJSON("GET", "/v1/jobs/"+job.ID+"/result", nil)
	if job.Metrics == nil {
		t.Fatalf("job %s carries no metrics: %+v", job.ID, job.JobStatus)
	}

	byKey := func(rows []metrics.Row) map[string]metrics.Row {
		m := map[string]metrics.Row{}
		for _, r := range rows {
			m[r.Key] = r
		}
		return m
	}
	prof, jobRows := byKey(snap.Result), byKey(job.Metrics.Result)
	for _, w := range want {
		if v, ok := stats[w.Key]; !ok || v != w.Value {
			t.Errorf("-stats %s = %d (listed %v), want %d", w.Key, v, ok, w.Value)
		}
		if prof[w.Key] != w {
			t.Errorf("-profile row %+v, want %+v", prof[w.Key], w)
		}
		if jobRows[w.Key] != w {
			t.Errorf("job result row %+v, want %+v", jobRows[w.Key], w)
		}
	}
	if len(want) == 0 || len(stats) != len(want) || len(prof) != len(want) || len(jobRows) != len(want) {
		t.Errorf("rows: want %d, -stats %d, -profile %d, job %d", len(want), len(stats), len(prof), len(jobRows))
	}
}

// TestListenConnectMatchesSimulation runs a master and two slaves of a live
// cluster through the command, the slaves pointed at the address the master
// prints, and wants the simulator's console and exit code. The slaves' -stats
// report their own nodes, and a switch only the master was given (-verify)
// shows in them: the node each slave ran proved the traces it compiled.
func TestListenConnectMatchesSimulation(t *testing.T) {
	prog := writeProg(t, sumSrc)
	wantCode, want, errOut := runCmd("-slaves", "2", prog)
	if want == "" {
		t.Fatalf("simulation printed nothing (exit %d): %s", wantCode, errOut)
	}

	pr, pw := io.Pipe()
	var stdout bytes.Buffer
	master := make(chan int, 1)
	go func() {
		master <- run([]string{"-listen", "127.0.0.1:0", "-slaves", "2", "-forward", "-split", "-verify", "-stats", prog}, &stdout, pw)
		pw.Close()
	}()
	lines := bufio.NewScanner(pr)
	if !lines.Scan() {
		t.Fatalf("master exited %d before it listened", <-master)
	}
	_, addr, ok := strings.Cut(lines.Text(), "waiting for 2 slave(s) on ")
	if !ok {
		t.Fatalf("master's first line: %q", lines.Text())
	}
	var masterErr strings.Builder
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for lines.Scan() {
			masterErr.WriteString(lines.Text() + "\n")
		}
	}()
	type slave struct {
		code   int
		stderr string
	}
	slaves := make(chan slave, 2)
	for range 2 {
		go func() {
			code, _, errOut := runCmd("-connect", addr, "-stats")
			slaves <- slave{code, errOut}
		}()
	}
	code := <-master
	<-drained
	ran := map[int64]bool{}
	for range 2 {
		s := <-slaves
		if s.code != 0 {
			t.Errorf("slave exited %d: %s", s.code, s.stderr)
			continue
		}
		rows := statsRows(t, s.stderr)
		id := rows["nodes.1.node"] + rows["nodes.2.node"] // the one it has
		ran[id] = true
		for key := range rows {
			if !strings.HasPrefix(key, fmt.Sprintf("nodes.%d.", id)) {
				t.Errorf("slave node %d reports row %s", id, key)
			}
		}
		if n := rows[fmt.Sprintf("nodes.%d.engine.verified_superblocks", id)]; n < 1 {
			t.Errorf("slave node %d proved %d traces: -verify did not reach it\n%s", id, n, s.stderr)
		}
	}
	if !ran[1] || !ran[2] {
		t.Errorf("slaves reported nodes %v, want 1 and 2", ran)
	}
	if code != wantCode || stdout.String() != want {
		t.Errorf("live exit %d console %q, sim exit %d console %q (master: %s)",
			code, stdout.String(), wantCode, want, masterErr.String())
	}
	if !strings.Contains(masterErr.String(), "s (wall)") {
		t.Errorf("-stats of a live run does not report wall time:\n%s", masterErr.String())
	}
	if strings.Contains(masterErr.String(), "net.by_kind.") {
		t.Errorf("-stats of a live run reports modelled network traffic:\n%s", masterErr.String())
	}
}

func TestUsageErrors(t *testing.T) {
	prog := writeProg(t, sumSrc)
	for _, args := range [][]string{
		{"-connect", "127.0.0.1:1", prog}, // a slave gets its program from the master
		{"-listen", "127.0.0.1:0"},        // a master needs one
		{},
	} {
		if code, _, _ := runCmd(args...); code != 2 {
			t.Errorf("%q: exit %d, want 2", args, code)
		}
	}
}

func TestListenRejectsAdaptive(t *testing.T) {
	prog := writeProg(t, sumSrc)
	code, _, errOut := runCmd("-listen", "127.0.0.1:0", "-adaptive", prog)
	if code != 1 || !strings.Contains(errOut, "Adaptive") {
		t.Errorf("exit %d, stderr %q", code, errOut)
	}
}

package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
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

// TestStatsMessageMix: -stats on the simulator follows the network line with
// one line per message kind sent, and the lines add up to that total.
func TestStatsMessageMix(t *testing.T) {
	prog := writeProg(t, sumSrc)
	code, _, errOut := runCmd("-slaves", "2", "-stats", prog)
	if code != 7 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	var totalMsgs, totalBytes, msgs, nbytes int
	kinds := map[string]bool{}
	for _, line := range strings.Split(errOut, "\n") {
		var kind string
		var n, b int
		switch {
		case strings.HasPrefix(line, "network:"):
			if _, err := fmt.Sscanf(line, "network: %d msgs, %d bytes", &totalMsgs, &totalBytes); err != nil {
				t.Fatalf("%q: %v", line, err)
			}
		case strings.HasPrefix(line, "  "):
			if _, err := fmt.Sscanf(line, "%s %d msgs, %d bytes", &kind, &n, &b); err != nil || n == 0 {
				t.Fatalf("kind line %q: %v", line, err)
			}
			kinds[kind] = true
			msgs += n
			nbytes += b
		}
	}
	if totalMsgs == 0 || msgs != totalMsgs || nbytes != totalBytes {
		t.Errorf("kind lines add up to %d msgs, %d bytes; network line says %d, %d:\n%s",
			msgs, nbytes, totalMsgs, totalBytes, errOut)
	}
	for _, k := range []string{"page-req", "page-content", "thread-start", "shutdown"} {
		if !kinds[k] {
			t.Errorf("no %s line:\n%s", k, errOut)
		}
	}
}

// TestListenConnectMatchesSimulation runs a master and two slaves of a live
// cluster through the command, the slaves pointed at the address the master
// prints, and wants the simulator's console and exit code.
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
		master <- run([]string{"-listen", "127.0.0.1:0", "-slaves", "2", "-forward", "-split", "-stats", prog}, &stdout, pw)
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
	slaves := make(chan string, 2)
	for range 2 {
		go func() {
			code, _, errOut := runCmd("-connect", addr)
			if code != 0 {
				errOut = "slave exited nonzero: " + errOut
			}
			slaves <- errOut
		}()
	}
	code := <-master
	<-drained
	for range 2 {
		if e := <-slaves; e != "" {
			t.Error(e)
		}
	}
	if code != wantCode || stdout.String() != want {
		t.Errorf("live exit %d console %q, sim exit %d console %q (master: %s)",
			code, stdout.String(), wantCode, want, masterErr.String())
	}
	if !strings.Contains(masterErr.String(), "s (wall)") {
		t.Errorf("-stats of a live run does not report wall time:\n%s", masterErr.String())
	}
	if strings.Contains(masterErr.String(), " msgs, ") {
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

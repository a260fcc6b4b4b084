// Command dqemu-submit is the dqemud client: it submits a guest program to
// the control-plane daemon, waits for it to finish, prints the guest's
// console output, and exits with the guest's exit code.
//
//	dqemu-submit -addr http://127.0.0.1:8787 -tenant alice -slaves 2 prog.mc
//	dqemu-submit -backend live prog.mc
//	dqemu-submit -list            # list jobs
//	dqemu-submit -daemon-status   # queue + tenant accounting
//
// Client/transport failures exit 125 so they are distinguishable from any
// guest exit code; quota rejections surface the daemon's 429 message.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"dqemu/internal/server"
)

func main() {
	addr := flag.String("addr", "http://127.0.0.1:8787", "dqemud base URL")
	tenant := flag.String("tenant", "", "tenant id (default tenant when empty)")
	req := &server.JobRequest{}
	flag.StringVar(&req.Name, "name", "", "job name (defaults to the program file name)")
	flag.StringVar(&req.Backend, "backend", "", "execution backend: sim (default) or live")
	flag.IntVar(&req.Slaves, "slaves", 0, "slave nodes for the job's cluster")
	flag.IntVar(&req.Cores, "cores", 0, "cores per node")
	flag.BoolVar(&req.Forwarding, "forward", false, "enable data forwarding")
	flag.BoolVar(&req.Splitting, "split", false, "enable page splitting")
	flag.BoolVar(&req.HintSched, "hints", false, "enable hint-based locality scheduling")
	flag.Func("timeout", "per-job host time limit as a duration (0 = daemon default)", func(v string) error {
		d, err := time.ParseDuration(v)
		req.TimeoutMs = d.Milliseconds()
		return err
	})
	flag.BoolVar(&req.Metrics, "metrics", false, "request the metrics snapshot (sim backend)")
	jsonOut := flag.Bool("json", false, "print the full job result as JSON instead of console output")
	noWait := flag.Bool("no-wait", false, "submit and print the job id without waiting")
	cancel := flag.String("cancel", "", "cancel the given job id and exit")
	list := flag.Bool("list", false, "list jobs and exit")
	daemonStatus := flag.Bool("daemon-status", false, "print daemon status and exit")
	var files fileFlags
	flag.Var(&files, "file", "guest VFS file as guestpath=hostpath (repeatable)")
	flag.Parse()

	c := &client{base: strings.TrimRight(*addr, "/"), tenant: *tenant}
	switch {
	case *list:
		c.get("/v1/jobs", os.Stdout)
	case *daemonStatus:
		c.get("/v1/status", os.Stdout)
	case *cancel != "":
		c.cancel(*cancel)
	default:
		if flag.NArg() != 1 {
			fmt.Fprintln(os.Stderr, "usage: dqemu-submit [flags] prog.mc|prog.s|prog.img")
			os.Exit(125)
		}
		path := flag.Arg(0)
		if req.Name == "" {
			req.Name = strings.TrimSuffix(path, ".mc")
		}
		data, err := os.ReadFile(path)
		if err != nil {
			fatal(err)
		}
		switch {
		case strings.HasSuffix(path, ".mc"):
			req.Source = string(data)
		case strings.HasSuffix(path, ".s"):
			req.Asm = string(data)
		case strings.HasSuffix(path, ".img"):
			req.Image = data
		default:
			fatal(fmt.Errorf("unknown program type %q (want .mc, .s or .img)", path))
		}
		if len(files) > 0 {
			req.Files = map[string][]byte{}
			for _, f := range files {
				data, err := os.ReadFile(f.host)
				if err != nil {
					fatal(err)
				}
				req.Files[f.guest] = data
			}
		}
		c.run(req, *noWait, *jsonOut)
	}
}

type client struct {
	base   string
	tenant string
}

func (c *client) do(method, path string, body io.Reader) (*http.Response, error) {
	req, err := http.NewRequest(method, c.base+path, body)
	if err != nil {
		return nil, err
	}
	if c.tenant != "" {
		req.Header.Set(server.TenantHeader, c.tenant)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	return http.DefaultClient.Do(req)
}

// doJSON performs a request and decodes the JSON reply, turning non-2xx
// responses into the daemon's APIError message.
func (c *client) doJSON(method, path string, body io.Reader, out any) error {
	resp, err := c.do(method, path, body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode >= 300 {
		var apiErr server.APIError
		if json.Unmarshal(data, &apiErr) == nil && apiErr.Message != "" {
			return fmt.Errorf("%s (HTTP %d)", apiErr.Message, resp.StatusCode)
		}
		return fmt.Errorf("HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(data)))
	}
	if out != nil {
		return json.Unmarshal(data, out)
	}
	return nil
}

func (c *client) get(path string, w io.Writer) {
	var raw json.RawMessage
	if err := c.doJSON("GET", path, nil, &raw); err != nil {
		fatal(err)
	}
	var pretty bytes.Buffer
	if err := json.Indent(&pretty, raw, "", "  "); err != nil {
		fatal(err)
	}
	fmt.Fprintln(w, pretty.String())
}

func (c *client) cancel(id string) {
	var st server.JobStatus
	if err := c.doJSON("DELETE", "/v1/jobs/"+id, nil, &st); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "dqemu-submit: job %s: %s\n", st.ID, st.State)
}

func (c *client) run(req *server.JobRequest, noWait, jsonOut bool) {
	body, err := json.Marshal(req)
	if err != nil {
		fatal(err)
	}
	var st server.JobStatus
	if err := c.doJSON("POST", "/v1/jobs", bytes.NewReader(body), &st); err != nil {
		fatal(err)
	}
	if noWait {
		fmt.Println(st.ID)
		return
	}
	// Long-poll until terminal; each round trip waits server-side so a
	// finished job returns immediately.
	for !st.State.Terminal() {
		if err := c.doJSON("GET", "/v1/jobs/"+st.ID+"?wait_ms=2000", nil, &st); err != nil {
			fatal(err)
		}
	}
	var res server.JobResult
	if err := c.doJSON("GET", "/v1/jobs/"+st.ID+"/result", nil, &res); err != nil {
		fatal(err)
	}
	if jsonOut {
		out, _ := json.MarshalIndent(res, "", "  ")
		fmt.Println(string(out))
	} else {
		os.Stdout.WriteString(res.Console)
	}
	switch res.State {
	case server.StateSucceeded:
		if res.ExitCode != nil && *res.ExitCode != 0 {
			fmt.Fprintf(os.Stderr, "dqemu-submit: guest exited %d\n", *res.ExitCode)
			os.Exit(int(*res.ExitCode & 0x7f))
		}
	default:
		fmt.Fprintf(os.Stderr, "dqemu-submit: job %s %s: %s\n", res.ID, res.State, res.Error)
		os.Exit(124)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dqemu-submit:", err)
	os.Exit(125)
}

type fileMapping struct{ guest, host string }

type fileFlags []fileMapping

func (f *fileFlags) String() string { return fmt.Sprint(*f) }

func (f *fileFlags) Set(v string) error {
	guest, host, ok := strings.Cut(v, "=")
	if !ok {
		return fmt.Errorf("want guestpath=hostpath, got %q", v)
	}
	*f = append(*f, fileMapping{guest: guest, host: host})
	return nil
}

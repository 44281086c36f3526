package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// goBuild builds pkg (an import path or ./dir) from dir into out. The
// build cache stays inside the checkout, under the work directory's parent.
func goBuild(e *env, dir, out, pkg string, tags ...string) error {
	args := []string{"build", "-o", out}
	if len(tags) > 0 {
		args = append(args, "-tags", strings.Join(tags, ","))
	}
	cmd := exec.Command("go", append(args, pkg)...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOCACHE="+filepath.Join(e.buildDir, "gocache"), "GOTOOLCHAIN=local", "GOFLAGS=")
	if b, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build %s: %v\n%s", pkg, err, bytes.TrimSpace(b))
	}
	return nil
}

// daemon is a running nodbd child. stop always reaps it.
type daemon struct {
	cmd    *exec.Cmd
	argv   []string
	base   string // http://127.0.0.1:port
	pprof  string // base URL of the pprof listener; traced runs only
	log    *os.File
	client *http.Client
	exited chan struct{} // closed once the child has been waited for
}

// freePort asks the kernel for an unused loopback port. nodbd prints the
// address it was given, not the one it bound, so ":0" cannot be used.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon runs nodbd with default options over the given file and
// waits until /readyz answers 200. With pprof it also opens nodbd's
// profiling listener, from which the traced run reads allocation counts.
func startDaemon(e *env, csv string, pprof bool) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	argv := []string{"-addr", addr}
	var pprofAddr string
	if pprof {
		if port, err = freePort(); err != nil {
			return nil, err
		}
		pprofAddr = fmt.Sprintf("127.0.0.1:%d", port)
		argv = append(argv, "-pprof", pprofAddr)
	}
	argv = append(argv, "wide="+csv)
	logf, err := os.Create(filepath.Join(e.work, "nodbd.log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(e.nodbd, argv...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// If the harness dies, the kernel kills the child: no orphan.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	d := &daemon{
		cmd:   cmd,
		argv:  append([]string{"nodbd"}, argv...),
		base:  "http://" + addr,
		pprof: "http://" + pprofAddr,
		log:   logf,
		client: &http.Client{
			Timeout:   60 * time.Second,
			Transport: &http.Transport{MaxIdleConnsPerHost: 8},
		},
		exited: make(chan struct{}),
	}
	e.daemons = append(e.daemons, d)
	go func() {
		_ = cmd.Wait()
		close(d.exited)
	}()
	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := d.client.Get(d.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		select {
		case <-d.exited:
			d.stop()
			out, _ := os.ReadFile(logf.Name())
			return nil, fmt.Errorf("nodbd exited before it was ready: %s", bytes.TrimSpace(out))
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("nodbd not ready after 20s (last error: %v)", err)
		}
	}
}

// stop asks nodbd to shut down, kills it if it does not, and waits for it.
func (d *daemon) stop() {
	d.client.CloseIdleConnections()
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(5 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
	d.log.Close()
}

// post sends {"query": sql} to path and returns the open response.
func (d *daemon) post(ctx context.Context, path, sql string) (*http.Response, error) {
	body, _ := json.Marshal(map[string]string{"query": sql})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, d.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := d.client.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		resp.Body.Close()
		return nil, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	return resp, nil
}

// queryReply is the part of a /v1/query body the harness checks.
type queryReply struct {
	Rows  [][]json.Number `json:"rows"`
	Stats *struct {
		WallMicros int64 `json:"wall_us"`
	} `json:"stats"`
}

// cells converts a JSON row set to oracle cells, using the expected
// answer's types to decide how each number is read.
func (r *queryReply) cells(want [][]any) ([][]any, error) {
	out := make([][]any, len(r.Rows))
	for i, row := range r.Rows {
		out[i] = make([]any, len(row))
		for j, n := range row {
			var err error
			if i < len(want) && j < len(want[i]) {
				if _, isF := want[i][j].(float64); isF {
					out[i][j], err = n.Float64()
				} else {
					out[i][j], err = n.Int64()
				}
			} else {
				out[i][j] = n.String()
			}
			if err != nil {
				return nil, fmt.Errorf("row %d col %d: %v", i, j, err)
			}
		}
	}
	return out, nil
}

// serverStats is the part of /v1/stats the harness reads.
type serverStats struct {
	MemBytes int64            `json:"mem_bytes"`
	Work     map[string]int64 `json:"work"`
	Server   struct {
		Rejected int64 `json:"rejected"`
		Failed   int64 `json:"failed"`
	} `json:"server"`
}

func (d *daemon) stats() (serverStats, error) {
	var st serverStats
	resp, err := d.client.Get(d.base + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, errors.New("GET /v1/stats: " + resp.Status)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

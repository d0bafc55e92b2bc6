package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/server"
	"repro/tkd"
)

// readyK is the k of the query that ends a boot: the server is up once it
// answers {"k":4} byte-correctly.
const readyK = 4

// buildServer compiles cmd/tkdserver once per invocation. Build time is not
// part of any metric.
func buildServer(root, dir string) (string, error) {
	bin := filepath.Join(dir, "tkdserver")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/tkdserver")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/tkdserver: %v\n%s", err, out)
	}
	return bin, nil
}

// proc is one tkdserver child process.
type proc struct {
	cmd   *exec.Cmd
	base  string   // http://127.0.0.1:port
	flags []string // exactly what it was started with, for the stamp
	logs  chan struct{}
	errb  bytes.Buffer
	once  sync.Once
}

// boot starts a cold server — fresh -indexdir, fresh -waldir where the
// workload ingests — and returns it with the time from exec to its first
// byte-correct answer. Readiness is not polled: the child's "listening" log
// line arrives through a pipe, and the first query follows at once.
func boot(bin string, w workload, in *inputs, dir string, c *conn) (*proc, time.Duration, error) {
	state, err := os.MkdirTemp(dir, "boot")
	if err != nil {
		return nil, 0, err
	}
	flags := []string{"-addr", "127.0.0.1:0", "-dataset", "d=" + in.csvPath, "-indexdir", filepath.Join(state, "idx")}
	flags = append(flags, w.flags...)
	if w.writer {
		flags = append(flags, "-waldir", filepath.Join(state, "wal"))
		flags = append(flags, ingestFlags...)
	}
	p := &proc{cmd: exec.Command(bin, flags...), flags: flags, logs: make(chan struct{})}
	p.cmd.Stderr = &p.errb
	stdout, err := p.cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	if err := p.cmd.Start(); err != nil {
		return nil, 0, err
	}
	addrc := make(chan string, 1)
	go func() {
		defer close(p.logs)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if addr := listenAddr(sc.Text()); addr != "" {
				addrc <- addr
			}
		}
		close(addrc)
	}()
	select {
	case addr, ok := <-addrc:
		if !ok {
			p.wait()
			return nil, 0, fmt.Errorf("tkdserver exited before listening: %s", strings.TrimSpace(p.errb.String()))
		}
		p.base = "http://" + addr
	case <-time.After(60 * time.Second):
		p.cmd.Process.Kill()
		p.wait()
		return nil, 0, errors.New("tkdserver did not listen within 60s")
	}
	resp, err := c.query(p.base, readyK, false)
	took := time.Since(start)
	if err != nil {
		p.stop()
		return nil, 0, fmt.Errorf("first query: %w", err)
	}
	if !sameItems(resp.Items, in.oracle[readyK]) {
		p.stop()
		return nil, 0, errors.New("first query: answer differs from the oracle")
	}
	return p, took, nil
}

// listenAddr extracts the address from `… msg=listening addr=127.0.0.1:N`.
func listenAddr(line string) string {
	if !strings.Contains(line, "msg=listening") {
		return ""
	}
	for _, f := range strings.Fields(line) {
		if v, ok := strings.CutPrefix(f, "addr="); ok {
			return v
		}
	}
	return ""
}

// stop drains the child with SIGTERM and waits until it has exited.
func (p *proc) stop() {
	p.once.Do(func() {
		p.cmd.Process.Signal(syscall.SIGTERM)
		done := make(chan struct{})
		go func() {
			p.wait()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(15 * time.Second):
			p.cmd.Process.Kill()
			<-done
		}
	})
}

// wait reaps the child once its stdout has been read to the end (Wait
// closes the pipe, so it must not run before the reader is done).
func (p *proc) wait() {
	<-p.logs
	p.cmd.Wait()
}

// rssPeakMB reads the child's high-water resident set (VmHWM).
func (p *proc) rssPeakMB() float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// conn is one of the load generator's connections: an HTTP client pinned to
// a single keep-alive TCP connection.
type conn struct{ hc *http.Client }

func newConn() *conn {
	return &conn{hc: &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
	}}
}

func (c *conn) close() { c.hc.CloseIdleConnections() }

// do sends one request and decodes a 200 answer into out.
func (c *conn) do(method, url string, body []byte, out any) error {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: HTTP %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(b))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(b, out)
}

func (c *conn) query(base string, k int, explain bool) (*server.QueryResponse, error) {
	body := fmt.Sprintf(`{"k":%d}`, k)
	if explain {
		body = fmt.Sprintf(`{"k":%d,"explain":true}`, k)
	}
	var resp server.QueryResponse
	if err := c.do("POST", base+"/v1/datasets/d/query", []byte(body), &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

func (c *conn) appendRows(base string, rows []tkd.Row) error {
	req := server.AppendRequest{Rows: make([]server.AppendRow, len(rows))}
	for i, r := range rows {
		vals := make([]*float64, len(r.Values))
		for d := range r.Values {
			if r.Values[d] == r.Values[d] { // not Missing (NaN)
				vals[d] = &r.Values[d]
			}
		}
		req.Rows[i] = server.AppendRow{ID: r.ID, Values: vals}
	}
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	var resp server.AppendResponse
	if err := c.do("POST", base+"/v1/datasets/d/append", body, &resp); err != nil {
		return err
	}
	if resp.Appended != len(rows) || !resp.Durable {
		return fmt.Errorf("append acked %d of %d rows, durable=%v", resp.Appended, len(rows), resp.Durable)
	}
	return nil
}

func (c *conn) objects(base string) (int, error) {
	var info server.DatasetInfo
	if err := c.do("GET", base+"/v1/datasets/d", nil, &info); err != nil {
		return 0, err
	}
	return info.Objects, nil
}

// sameItems compares a served answer with the oracle's item by item: index,
// id and score, in rank order.
func sameItems(got []server.QueryItem, want tkd.Result) bool {
	if len(got) != len(want.Items) {
		return false
	}
	for i, it := range got {
		w := want.Items[i]
		if it.Rank != i+1 || it.Index != w.Index || it.ID != w.ID || it.Score != w.Score {
			return false
		}
	}
	return true
}

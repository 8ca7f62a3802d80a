package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// clockTick is the unit of utime/stime in /proc/<pid>/stat (USER_HZ, 100 on
// every Linux architecture Go supports).
const clockTick = 10 * time.Millisecond

// daemon is one stad child process and the single keep-alive connection
// the closed-loop caller holds to it.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
	exited chan struct{} // closed once Wait has returned
	err    error         // Wait's result, valid after exited is closed
}

// startDaemon launches stad at its defaults — only the library directory
// and an ephemeral loopback address are set — and returns once it logs the
// address it listens on.
func startDaemon(bin, libDir string) (*daemon, error) {
	addr := make(chan string, 1)
	cmd := exec.Command(bin, "-lib", libDir, "-addr", "127.0.0.1:0")
	cmd.Stderr = &listenScanner{addr: addr}
	// The daemon must not outlive the benchmark, even if the benchmark is
	// killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start stad: %w", err)
	}
	d := &daemon{cmd: cmd, exited: make(chan struct{})}
	go func() {
		d.err = cmd.Wait()
		close(d.exited)
	}()
	select {
	case a := <-addr:
		d.base = "http://" + a
	case <-d.exited:
		return nil, fmt.Errorf("stad exited before listening: %v", d.err)
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, fmt.Errorf("stad did not report a listen address within 30s")
	}
	d.client = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
	return d, nil
}

// stop sends SIGTERM, lets stad drain, and waits for the process to exit
// (SIGKILL after ten seconds).
func (d *daemon) stop() {
	if d.client != nil {
		d.client.CloseIdleConnections()
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // an already-exited process is fine
	select {
	case <-d.exited:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
}

// cpu returns the daemon's user+system CPU time so far.
func (d *daemon) cpu() (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name start at field 3 (state);
	// utime and stime are fields 14 and 15.
	s := string(data)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse /proc stat times: %v %v", err1, err2)
	}
	return time.Duration(ut+st) * clockTick, nil
}

// peakRSS returns the daemon's resident-set high-water mark (VmHWM) in MB.
func (d *daemon) peakRSS() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// do sends one request and reads the whole answer into buf. The latency
// runs from just before the request is written to the last byte read; the
// caller decodes afterwards.
func (d *daemon) do(method, path string, body []byte, hdr http.Header, buf *bytes.Buffer) (status int, lat time.Duration, err error) {
	req, err := http.NewRequest(method, d.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	for k, v := range hdr {
		req.Header[k] = v
	}
	buf.Reset()
	t0 := time.Now()
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, 0, err
	}
	_, err = buf.ReadFrom(resp.Body)
	lat = time.Since(t0)
	resp.Body.Close()
	return resp.StatusCode, lat, err
}

// getJSON fetches a small JSON document (health, debug records).
func (d *daemon) getJSON(path string, v any) error {
	var buf bytes.Buffer
	status, _, err := d.do(http.MethodGet, path, nil, nil, &buf)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", path, status, strings.TrimSpace(buf.String()))
	}
	return json.Unmarshal(buf.Bytes(), v)
}

// health is the part of /healthz the benchmark reads.
type health struct {
	Baselines int `json:"baselines"`
}

// listenScanner is stad's stderr: it picks the listen address out of the
// startup log and discards everything else (one log line per request).
type listenScanner struct {
	mu   sync.Mutex
	line []byte
	addr chan<- string // receives the address once, then nil
}

func (s *listenScanner) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.addr == nil {
		return len(p), nil
	}
	s.line = append(s.line, p...)
	for {
		i := bytes.IndexByte(s.line, '\n')
		if i < 0 {
			return len(p), nil
		}
		line := string(s.line[:i])
		s.line = s.line[i+1:]
		if !strings.Contains(line, "msg=listening") {
			continue
		}
		for _, f := range strings.Fields(line) {
			if a, ok := strings.CutPrefix(f, "addr="); ok {
				s.addr <- a
				s.addr, s.line = nil, nil
				return len(p), nil
			}
		}
	}
}

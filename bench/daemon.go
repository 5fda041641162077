package main

import (
	"bufio"
	"bytes"
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
)

// daemons tracks the live interfd processes so that an interrupted harness
// can stop them before it exits: a run never leaks a process.
type daemons struct {
	mu     sync.Mutex
	live   map[*daemon]bool
	closed bool
}

func (ds *daemons) add(d *daemon) bool {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if ds.closed {
		return false
	}
	if ds.live == nil {
		ds.live = map[*daemon]bool{}
	}
	ds.live[d] = true
	return true
}

func (ds *daemons) remove(d *daemon) {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	delete(ds.live, d)
}

// stopAll stops every live daemon and refuses new ones.
func (ds *daemons) stopAll() {
	ds.mu.Lock()
	ds.closed = true
	live := ds.live
	ds.live = nil
	ds.mu.Unlock()
	for d := range live {
		d.terminate()
	}
}

// daemon is one live interfd process started by the harness.
type daemon struct {
	set     *daemons
	cmd     *exec.Cmd
	base    string // http://host:port
	dir     string // scratch directory holding its addr file and report
	startup time.Duration
	waited  chan error
}

// readyTimeout bounds a cold start; killGrace is how long SIGTERM gets
// before SIGKILL.
const (
	readyTimeout = 60 * time.Second
	killGrace    = 5 * time.Second
)

// startDaemon execs interfd and waits for its first /readyz 200. The
// returned daemon's startup is exec -> ready, the HTTP workloads' set-up
// time. The caller must stop it.
func startDaemon(set *daemons, bin, scratch string, seed int64) (*daemon, error) {
	dir, err := os.MkdirTemp(scratch, "interfd-")
	if err != nil {
		return nil, err
	}
	addrFile := filepath.Join(dir, "addr")
	logFile, err := os.Create(filepath.Join(dir, "log"))
	if err != nil {
		return nil, err
	}
	defer logFile.Close() // the child keeps its own descriptor
	cmd := exec.Command(bin, interfdArgs(seed, addrFile, filepath.Join(dir, "report.json"))...)
	cmd.Dir = dir
	cmd.Stdout, cmd.Stderr = logFile, logFile
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start interfd: %w", err)
	}
	d := &daemon{set: set, cmd: cmd, dir: dir, waited: make(chan error, 1)} // one send, never blocks the waiter
	go func() { d.waited <- cmd.Wait() }()
	if !set.add(d) {
		d.terminate()
		return nil, errors.New("interrupted")
	}
	if err := d.awaitReady(addrFile, t0); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

func (d *daemon) awaitReady(addrFile string, t0 time.Time) error {
	deadline := t0.Add(readyTimeout)
	client := &http.Client{Timeout: time.Second}
	for time.Now().Before(deadline) {
		select {
		case err := <-d.waited:
			d.waited <- err
			return fmt.Errorf("interfd exited during start-up: %v", err)
		default:
		}
		if d.base == "" {
			if b, err := os.ReadFile(addrFile); err == nil && bytes.HasSuffix(b, []byte("\n")) {
				d.base = "http://" + strings.TrimSpace(string(b))
			}
		}
		if d.base != "" {
			if resp, err := client.Get(d.base + "/readyz"); err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					d.startup = time.Since(t0)
					return nil
				}
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return errors.New("interfd not ready in time")
}

// stop ends the daemon and removes its scratch files.
func (d *daemon) stop() {
	d.set.remove(d)
	d.terminate()
	os.RemoveAll(d.dir)
}

// terminate SIGTERMs the daemon, waits for it, and kills it after
// killGrace. It may be called more than once.
func (d *daemon) terminate() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // already-exited is fine: the wait below returns
	select {
	case err := <-d.waited:
		d.waited <- err
	case <-time.After(killGrace):
		_ = d.cmd.Process.Kill()
		d.waited <- <-d.waited
	}
}

// peakRSSMB reads a process's VmHWM from /proc, in MB.
func peakRSSMB(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("VmHWM not found")
}

func (d *daemon) get(path string) ([]byte, error) {
	resp, err := http.Get(d.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return body, nil
}

// counters scrapes the daemon's own /metrics into name -> value (labels
// kept as written, e.g. serve_requests_total{endpoint="place"}).
func (d *daemon) counters() (map[string]float64, error) {
	body, err := d.get("/metrics")
	if err != nil {
		return nil, err
	}
	return parseMetrics(body), nil
}

func parseMetrics(body []byte) map[string]float64 {
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// totalAllocBytes reads the daemon's cumulative allocation from the
// MemStats trailer of its own /debug/pprof/heap?debug=1.
func (d *daemon) totalAllocBytes() (float64, error) {
	body, err := d.get("/debug/pprof/heap?debug=1")
	if err != nil {
		return 0, err
	}
	const key = "# TotalAlloc = "
	i := bytes.LastIndex(body, []byte(key))
	if i < 0 {
		return 0, errors.New("TotalAlloc not in heap profile trailer")
	}
	rest := body[i+len(key):]
	if j := bytes.IndexByte(rest, '\n'); j >= 0 {
		rest = rest[:j]
	}
	return strconv.ParseFloat(strings.TrimSpace(string(rest)), 64)
}

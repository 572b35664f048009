package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one hgpd process on loopback.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	logs   chan struct{} // closed when the stderr reader has exited
	client *http.Client
}

// startDaemon execs hgpd with -canon on an ephemeral loopback port,
// every other flag at its default, and returns once /v1/healthz
// answers ok.
func startDaemon(bin string, conns int) (*daemon, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-canon")
	// The daemon dies with the benchmark, even if the benchmark crashes.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting hgpd: %w", err)
	}
	d := &daemon{cmd: cmd, logs: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(d.logs)
		sc := bufio.NewScanner(stderr)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, "hgpd listening on "); i >= 0 && !sent {
				addr <- strings.TrimSpace(line[i+len("hgpd listening on "):])
				sent = true
			}
		}
		if !sent {
			close(addr)
		}
	}()
	var a string
	select {
	case got, ok := <-addr:
		if !ok {
			d.stop()
			return nil, errors.New("hgpd exited before listening")
		}
		a = got
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, errors.New("hgpd did not report a listen address within 30s")
	}
	d.base = "http://" + a
	d.client = &http.Client{Transport: &http.Transport{
		MaxIdleConns: conns, MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns,
		DisableCompression: true,
	}}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := d.client.Get(d.base + "/v1/healthz")
		if err == nil {
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK && strings.Contains(string(body), `"ok"`) {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, errors.New("hgpd healthz not ok within 30s")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop terminates the daemon and waits until it and its log reader
// have exited: SIGTERM first, SIGKILL if draining takes over 10s.
func (d *daemon) stop() {
	if d.client != nil {
		d.client.CloseIdleConnections()
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		_ = d.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-done
	}
	<-d.logs
}

// cpu returns the daemon's user+system CPU time so far, from
// /proc/<pid>/stat (fields 14 and 15, in clock ticks of 10 ms).
func (d *daemon) cpu() (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields after it
	// start past the closing parenthesis.
	s := string(raw)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line %q", s)
	}
	var ticks int64
	for _, x := range f[11:13] {
		v, err := strconv.ParseInt(x, 10, 64)
		if err != nil {
			return 0, err
		}
		ticks += v
	}
	return time.Duration(ticks) * 10 * time.Millisecond, nil
}

// peakRSSMB returns the daemon's peak resident set (VmHWM) in MiB.
func (d *daemon) peakRSSMB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// statsView is the part of GET /v1/stats the benchmark reads.
type statsView struct {
	Metrics struct {
		Counters map[string]int64 `json:"counters"`
	} `json:"metrics"`
	Cache       *cacheView `json:"cache"`
	ResultCache *cacheView `json:"result_cache"`
}

type cacheView struct {
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
}

func (d *daemon) stats() (*statsView, error) {
	resp, err := d.client.Get(d.base + "/v1/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var st statsView
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, fmt.Errorf("decoding /v1/stats: %w", err)
	}
	if st.Cache == nil {
		st.Cache = &cacheView{}
	}
	if st.ResultCache == nil {
		st.ResultCache = &cacheView{}
	}
	return &st, nil
}

// counterDelta is a counter's growth between two stats snapshots; a
// counter not yet registered reads as zero.
func counterDelta(a, b *statsView, name string) int64 {
	return b.Metrics.Counters[name] - a.Metrics.Counters[name]
}

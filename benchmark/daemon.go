package main

import (
	"bufio"
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
	"strconv"
	"strings"
	"syscall"
	"time"

	"genclus/client"
)

// buildDaemon compiles cmd/genclusd from the repository at root into dir.
func buildDaemon(root, dir string) (string, error) {
	bin := filepath.Join(dir, "genclusd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/genclusd")
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("build genclusd: %w", err)
	}
	return bin, nil
}

// maxConns caps the benchmark's connections to the daemon at the host's
// two cores: load comes from this one process, never more than two
// requests in flight.
const maxConns = 2

// daemon is one genclusd subprocess on a loopback port with its own data
// directory and default flags otherwise.
type daemon struct {
	cmd     *exec.Cmd
	dir     string
	base    string
	hc      *http.Client
	sdk     *client.Client
	exited  chan struct{}
	waitErr error
}

// startDaemon launches bin with a fresh data dir under workDir and returns
// once /healthz answers.
func startDaemon(ctx context.Context, bin, workDir string) (*daemon, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		d, err := tryStart(ctx, bin, workDir)
		if err == nil {
			return d, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

func tryStart(ctx context.Context, bin, workDir string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(workDir, "daemon-")
	if err != nil {
		return nil, fmt.Errorf("daemon dir: %w", err)
	}
	logf, err := os.Create(filepath.Join(dir, "daemon.log"))
	if err != nil {
		return nil, fmt.Errorf("daemon log: %w", err)
	}
	defer logf.Close() // the child holds its own descriptor
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, "-addr", addr, "-data-dir", filepath.Join(dir, "data"))
	cmd.Stdout, cmd.Stderr = logf, logf
	// A daemon must not outlive a benchmark that was killed outright.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start genclusd: %w", err)
	}
	hc := &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     maxConns,
		MaxIdleConnsPerHost: maxConns,
		DisableCompression:  true,
	}}
	d := &daemon{
		cmd:    cmd,
		dir:    dir,
		base:   "http://" + addr,
		hc:     hc,
		sdk:    client.New("http://"+addr, client.WithHTTPClient(hc), client.WithRetries(0, 0)),
		exited: make(chan struct{}),
	}
	go func() { d.waitErr = cmd.Wait(); close(d.exited) }()
	if err := d.waitHealthy(ctx); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, fmt.Errorf("pick port: %w", err)
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// waitHealthy polls /healthz until it answers, the process exits, or 10 s
// pass.
func (d *daemon) waitHealthy(ctx context.Context) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		hctx, cancel := context.WithTimeout(ctx, time.Second)
		_, err := d.sdk.Health(hctx)
		cancel()
		if err == nil {
			return nil
		}
		select {
		case <-d.exited:
			return fmt.Errorf("genclusd exited during start-up (%v); log in %s", d.waitErr, d.dir)
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("genclusd not healthy after 10s: %w", err)
		}
	}
}

// stop interrupts the daemon and waits for it to exit, killing it if a
// graceful shutdown takes longer than 10 s.
func (d *daemon) stop() {
	d.hc.CloseIdleConnections()
	select {
	case <-d.exited:
		return
	default:
	}
	_ = d.cmd.Process.Signal(os.Interrupt)
	select {
	case <-d.exited:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
}

// peakRSSMiB reads the daemon's high-water resident set size (VmHWM).
func (d *daemon) peakRSSMiB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, fmt.Errorf("read daemon status: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", v, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("VmHWM missing from /proc status")
}

// getJSON fetches a daemon route the SDK does not wrap (traces).
func (d *daemon) getJSON(ctx context.Context, path string, out any) error {
	body, err := d.get(ctx, path)
	if err != nil {
		return err
	}
	return json.Unmarshal(body, out)
}

func (d *daemon) get(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := d.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("GET %s: %w", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("GET %s: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s: %s", path, resp.Status, bytes.TrimSpace(body))
	}
	return body, nil
}

// scrape reads /metrics into series → value, keyed by the series text as
// exposed (name plus label set).
func (d *daemon) scrape(ctx context.Context) (promSample, error) {
	body, err := d.get(ctx, "/metrics")
	if err != nil {
		return nil, err
	}
	return parseProm(body), nil
}

// promSample is one /metrics scrape.
type promSample map[string]float64

func parseProm(body []byte) promSample {
	out := make(promSample)
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// delta returns after − before for one series.
func delta(before, after promSample, series string) float64 {
	return after[series] - before[series]
}

// routeSeries names a per-route HTTP duration series.
func routeSeries(suffix, route string) string {
	return "genclus_http_request_duration_seconds_" + suffix + `{route="` + route + `"}`
}

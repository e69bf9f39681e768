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
	"strconv"
	"strings"
	"syscall"
	"time"
)

// buildDir holds everything building and running leaves behind inside
// the checkout (git-ignored): the server binary and the data
// directories of the mixed_serving runs.
const buildDir = ".bench_build"

// buildServer compiles ./cmd/galois-serve from the checkout's source.
// Build time is outside every metric.
func buildServer(ctx context.Context) (string, error) {
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return "", err
	}
	bin, err := filepath.Abs(filepath.Join(buildDir, "galois-serve"))
	if err != nil {
		return "", err
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/galois-serve")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building galois-serve: %w\n%s", err, out)
	}
	return bin, nil
}

// server is one galois-serve subprocess.
type server struct {
	cmd     *exec.Cmd
	base    string // http://127.0.0.1:port
	stderr  *bytes.Buffer
	exited  chan struct{} // closed once Wait returned
	waitErr error
}

// freePort asks the kernel for an unused loopback port. The listener is
// closed before the server binds it; the window is small and a lost
// race surfaces as an early exit with the bind error on stderr.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer execs the binary with the workload's flags and polls
// /healthz until it answers 200, the process exits, or the deadline
// passes. Every repetition gets the same environment: the parent's.
func startServer(ctx context.Context, bin string, flags []string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	s := &server{
		cmd:    exec.Command(bin, append([]string{"-addr", addr}, flags...)...),
		base:   "http://" + addr,
		stderr: &bytes.Buffer{},
		exited: make(chan struct{}),
	}
	s.cmd.Stderr = s.stderr
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting galois-serve: %w", err)
	}
	go func() {
		s.waitErr = s.cmd.Wait()
		close(s.exited)
	}()

	deadline := time.NewTimer(20 * time.Second)
	defer deadline.Stop()
	tick := time.NewTicker(250 * time.Microsecond)
	defer tick.Stop()
	for {
		resp, err := http.Get(s.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case <-s.exited:
			return nil, fmt.Errorf("galois-serve exited before /healthz answered: %v\n%s", s.waitErr, s.stderr)
		case <-deadline.C:
			s.kill()
			return nil, fmt.Errorf("galois-serve did not answer /healthz within 20s\n%s", s.stderr)
		case <-ctx.Done():
			s.kill()
			return nil, ctx.Err()
		case <-tick.C:
		}
	}
}

// drain sends SIGTERM and waits for a clean exit: the drain is what
// flushes the durable store, so a non-zero status is an error.
func (s *server) drain() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return err
	}
	select {
	case <-s.exited:
	case <-time.After(40 * time.Second):
		s.kill()
		return fmt.Errorf("galois-serve did not exit within 40s of SIGTERM\n%s", s.stderr)
	}
	if s.waitErr != nil {
		return fmt.Errorf("galois-serve drain: %w\n%s", s.waitErr, s.stderr)
	}
	return nil
}

// kill stops the process unconditionally and waits until it has ended.
func (s *server) kill() {
	_ = s.cmd.Process.Kill()
	<-s.exited
}

// serverStats mirrors the fields of galois-serve's /stats the benchmark
// reads.
type serverStats struct {
	QueriesServed           int64 `json:"queries_served"`
	MaxActive               int64 `json:"max_active"`
	CacheHits               int64 `json:"cache_hits"`
	CacheMisses             int64 `json:"cache_misses"`
	CacheEntries            int64 `json:"cache_entries"`
	ResultCacheHits         int64 `json:"result_cache_hits"`
	ResultCacheSubsumedHits int64 `json:"result_cache_subsumed_hits"`
	ResultCacheMisses       int64 `json:"result_cache_misses"`
	ResultCacheEntries      int64 `json:"result_cache_entries"`
	ResultCacheBytes        int64 `json:"result_cache_bytes"`
	Shed                    int64 `json:"shed"`
	Timeouts                int64 `json:"timeouts"`
	Failovers               int64 `json:"failovers"`
	Resilience              []struct {
		Counters struct {
			Retries int64 `json:"retries"`
			Faults  int64 `json:"faults"`
		} `json:"counters"`
	} `json:"resilience"`
	Backends []struct {
		Name    string `json:"name"`
		Prompts int64  `json:"prompts"`
	} `json:"backends"`
	Admission struct {
		Decreases int64 `json:"decreases"`
	} `json:"admission"`
	Sched struct {
		Interactive struct {
			Drained int64 `json:"drained"`
		} `json:"interactive"`
		Batch struct {
			Drained int64 `json:"drained"`
		} `json:"batch"`
	} `json:"sched"`
	Persistence struct {
		WarmRelations int64 `json:"warm_relations"`
		DroppedStale  int64 `json:"dropped_stale"`
		Errors        int64 `json:"errors"`
	} `json:"persistence"`
}

func (s *server) stats() (serverStats, error) {
	var st serverStats
	resp, err := http.Get(s.base + "/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("/stats answered %s", resp.Status)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// procSample is one reading of the server's /proc entries.
type procSample struct {
	cpu     time.Duration // user+sys
	peakRSS float64       // VmHWM, MB
}

// clockTick is the kernel's USER_HZ; /proc/<pid>/stat counts CPU time in
// these units, and on Linux the value is 100 on every architecture Go
// supports.
const clockTick = 100

func (s *server) proc() (procSample, error) {
	pid := strconv.Itoa(s.cmd.Process.Pid)
	stat, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return procSample{}, err
	}
	cpu, err := parseProcStat(string(stat))
	if err != nil {
		return procSample{}, err
	}
	status, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return procSample{}, err
	}
	hwm, err := parseVmHWM(string(status))
	if err != nil {
		return procSample{}, err
	}
	return procSample{cpu: cpu, peakRSS: hwm}, nil
}

// parseProcStat extracts utime+stime from a /proc/<pid>/stat line. The
// command name (field 2) may contain spaces and parentheses, so fields
// are counted from the last ')'.
func parseProcStat(line string) (time.Duration, error) {
	i := strings.LastIndexByte(line, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc stat line %q", line)
	}
	f := strings.Fields(line[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line %q", line)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed CPU fields in /proc stat line %q", line)
	}
	return time.Duration(utime+stime) * time.Second / clockTick, nil
}

// parseVmHWM extracts the peak resident set size in MB from
// /proc/<pid>/status.
func parseVmHWM(status string) (float64, error) {
	for _, line := range strings.Split(status, "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 2 && f[1] == "kB" {
				kb, err := strconv.ParseFloat(f[0], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, errors.New("no VmHWM line in /proc status")
}

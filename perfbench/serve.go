package main

import (
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

	"icbe/internal/server"
)

// serverProc is one icbe-serve child process.
type serverProc struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:<port>
	done chan struct{}
	err  error // exit status, valid once done is closed
}

// clockTick is USER_HZ, the unit of utime and stime in /proc/<pid>/stat; it
// is 100 on every Linux architecture Go supports.
const clockTick = 100

// startServer launches bin on a free loopback port with the workload's
// flags and returns once /readyz answers 200. logPath receives the
// server's output; storeDir, when non-empty, is passed as -store-dir.
func startServer(ctx context.Context, bin string, w *workload, storeDir, logPath string) (*serverProc, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	args := []string{"-addr", fmt.Sprintf("127.0.0.1:%d", port), "-cache-entries", strconv.Itoa(w.cacheEntries)}
	if storeDir != "" {
		args = append(args, "-store-dir", storeDir)
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("server log: %w", err)
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The server must not outlive the benchmark, even when the benchmark
	// itself is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	s := &serverProc{cmd: cmd, base: fmt.Sprintf("http://127.0.0.1:%d", port), done: make(chan struct{})}
	go func() {
		s.err = cmd.Wait()
		close(s.done)
	}()
	if err := s.waitReady(ctx); err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, fmt.Errorf("find a free port: %w", err)
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

func (s *serverProc) waitReady(ctx context.Context) error {
	ctx, cancel := context.WithTimeout(ctx, 20*time.Second)
	defer cancel()
	c := &http.Client{Timeout: time.Second}
	for {
		resp, err := c.Get(s.base + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-s.done:
			return fmt.Errorf("icbe-serve exited before ready: %v", s.err)
		case <-ctx.Done():
			return errors.New("icbe-serve not ready within 20s")
		case <-time.After(time.Millisecond):
		}
	}
}

// stop drains the server with SIGTERM, kills it if the drain takes longer
// than ten seconds, and waits for the process to end.
func (s *serverProc) stop() {
	select {
	case <-s.done:
		return
	default:
	}
	// A signal fails only when the process has already exited, which the
	// wait below observes either way.
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
}

func (s *serverProc) stats(c *http.Client) (*server.StatsSnapshot, error) {
	resp, err := c.Get(s.base + "/stats")
	if err != nil {
		return nil, fmt.Errorf("GET /stats: %w", err)
	}
	defer resp.Body.Close()
	var snap server.StatsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return nil, fmt.Errorf("decode /stats: %w", err)
	}
	return &snap, nil
}

// cpuTime is the server's utime+stime so far.
func (s *serverProc) cpuTime() (time.Duration, error) {
	b, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(s.cmd.Process.Pid), "stat"))
	if err != nil {
		return 0, err
	}
	return parseCPUTime(string(b))
}

// parseCPUTime reads utime and stime (fields 14 and 15) from a
// /proc/<pid>/stat line. The command name in field 2 may hold spaces, so
// fields are counted after its closing parenthesis.
func parseCPUTime(stat string) (time.Duration, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(stat[i+1:])
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	var ticks int64
	for _, s := range f[11:13] { // fields 14 and 15 overall
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("parse /proc stat: %w", err)
		}
		ticks += n
	}
	return time.Duration(ticks) * time.Second / clockTick, nil
}

// peakRSS is the server's VmHWM in MiB.
func (s *serverProc) peakRSS() (float64, error) {
	b, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(s.cmd.Process.Pid), "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// clockTick is the kernel's USER_HZ, the unit of utime and stime in
// /proc/<pid>/stat (100 on every Linux platform Go supports).
const clockTick = 10 * time.Millisecond

// server is one elpcd process the benchmark started.
type server struct {
	cmd    *exec.Cmd
	base   string
	log    *os.File
	exited chan struct{}
}

// live tracks every started process so an interrupted run still stops
// them all.
var live = struct {
	sync.Mutex
	m map[*server]bool
}{m: map[*server]bool{}}

// freeAddr returns a loopback address nothing listens on.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// startServer execs bin on a fresh loopback port with the extra flags; its
// output goes to logPath.
func startServer(bin, logPath string, extra ...string) (*server, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr, "-drain", "5s"}, extra...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The kernel kills the server if the benchmark dies without cleanup.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	s := &server{cmd: cmd, base: "http://" + addr, log: logf, exited: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status of a killed server carries nothing
		logf.Close()
		close(s.exited)
	}()
	live.Lock()
	live.m[s] = true
	live.Unlock()
	return s, nil
}

// stop signals the server and waits for it to exit; SIGTERM escalates to
// SIGKILL after a grace period.
func (s *server) stop(sig syscall.Signal) {
	_ = s.cmd.Process.Signal(sig) // fails only if it already exited
	select {
	case <-s.exited:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
	live.Lock()
	delete(live.m, s)
	live.Unlock()
}

// stopAll kills every server still running and waits for each.
func stopAll() {
	live.Lock()
	servers := make([]*server, 0, len(live.m))
	for s := range live.m {
		servers = append(servers, s)
	}
	live.Unlock()
	for _, s := range servers {
		s.stop(syscall.SIGKILL)
	}
}

// cpuTime returns the server's user+system CPU time so far.
func (s *server) cpuTime() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	return parseCPU(string(b))
}

// parseCPU reads utime+stime from a /proc/<pid>/stat line. The fields
// after the parenthesised command name start at field 3 (state), so utime
// (field 14) and stime (field 15) are the 12th and 13th.
func parseCPU(stat string) (time.Duration, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed stat line")
	}
	f := strings.Fields(stat[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short stat line")
	}
	u, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("stat cpu fields %q %q", f[11], f[12])
	}
	return time.Duration(u+st) * clockTick, nil
}

// peakRSSMB returns the server's VmHWM (peak resident set) in MB.
func (s *server) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	return parseHWM(f)
}

func parseHWM(r io.Reader) (float64, error) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line")
}

// dirBytes returns the total size of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}

// copyDir copies the regular files of src (one level, as a data dir holds)
// into a new dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

package main

import (
	"bytes"
	"fmt"
	"io"
	"io/fs"
	"net"
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

// daemon is one spawned asrsd. It runs in its own process group so a
// kill reaches anything it might start, and every live daemon is
// registered so an error path or the watchdog can stop them all.
type daemon struct {
	cmd     *exec.Cmd
	url     string
	logPath string
	started time.Time
	exited  chan struct{}
}

var (
	liveMu sync.Mutex
	live   = map[*daemon]struct{}{}
)

// killAll stops every daemon still running (error paths, watchdog).
func killAll() {
	liveMu.Lock()
	ds := make([]*daemon, 0, len(live))
	for d := range live {
		ds = append(ds, d)
	}
	liveMu.Unlock()
	for _, d := range ds {
		d.kill()
	}
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon execs asrsd on a fresh loopback port with stderr captured
// to logPath. The boot clock (d.started) starts just before exec.
func startDaemon(bin string, args []string, logPath string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child keeps its own descriptor
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	d := &daemon{cmd: cmd, url: "http://" + addr, logPath: logPath, exited: make(chan struct{})}
	d.started = time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	liveMu.Lock()
	live[d] = struct{}{}
	liveMu.Unlock()
	go func() {
		_ = cmd.Wait() // exit status is irrelevant: daemons end by signal
		close(d.exited)
	}()
	return d, nil
}

// readyClient polls /readyz; one connection attempt per poll, no reuse,
// so a refused connection never poisons a pooled one.
var readyClient = &http.Client{
	Timeout:   time.Second,
	Transport: &http.Transport{DisableKeepAlives: true},
}

// waitReady polls /readyz every 2 ms and returns the time from exec to
// the first 200.
func (d *daemon) waitReady(timeout time.Duration) (time.Duration, error) {
	deadline := d.started.Add(timeout)
	for {
		resp, err := readyClient.Get(d.url + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return time.Since(d.started), nil
			}
		}
		select {
		case <-d.exited:
			return 0, fmt.Errorf("asrsd exited before becoming ready:\n%s", d.logTail())
		default:
		}
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("asrsd not ready after %v:\n%s", timeout, d.logTail())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// kill sends SIGKILL to the daemon's process group and waits for the
// process to be reaped. Safe to call more than once.
func (d *daemon) kill() {
	if d.cmd.Process != nil {
		_ = syscall.Kill(-d.cmd.Process.Pid, syscall.SIGKILL) // already gone is fine
	}
	<-d.exited
	liveMu.Lock()
	delete(live, d)
	liveMu.Unlock()
}

// logTail returns the end of the daemon's captured stderr.
func (d *daemon) logTail() string {
	b, err := os.ReadFile(d.logPath)
	if err != nil {
		return "(no daemon log: " + err.Error() + ")"
	}
	if len(b) > 4096 {
		b = b[len(b)-4096:]
	}
	return string(b)
}

// clockTicksPerSec is the kernel's USER_HZ, the unit of utime/stime in
// /proc/<pid>/stat. It is 100 on every Linux the Go toolchain supports.
const clockTicksPerSec = 100

// cpuMs returns the daemon's user+system CPU time so far.
func (d *daemon) cpuMs() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields resume
	// after the closing parenthesis. utime and stime are fields 14, 15.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, fmt.Errorf("unparsable /proc stat")
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat")
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unparsable utime/stime in /proc stat")
	}
	return (ut + st) * 1000 / clockTicksPerSec, nil
}

// peakRSSMB returns the daemon's resident-set high-water mark (VmHWM).
func (d *daemon) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("unparsable VmHWM %q", rest)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.Type().IsRegular() {
			info, err := e.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}

// copyDir copies the regular files and directories under src to dst.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(p string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, p)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if e.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		if !e.Type().IsRegular() {
			return nil
		}
		in, err := os.Open(p)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}

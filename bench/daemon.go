package main

import (
	"bufio"
	"bytes"
	"context"
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

// findRoot returns the repository root: the nearest directory, from the
// working directory up, that holds BENCHMARK.json.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no BENCHMARK.json in the working directory or above it")
		}
		dir = parent
	}
}

// buildDaemon compiles cmd/redpatchd from the checkout into dir.
func buildDaemon(root, dir string) (string, error) {
	bin := filepath.Join(dir, "redpatchd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/redpatchd")
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	if err != nil {
		return "", fmt.Errorf("building redpatchd: %v\n%s", err, out)
	}
	return bin, nil
}

// daemon is one running redpatchd process.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	pid  int
}

// freePort asks the kernel for an unused loopback port. The port is
// released before the daemon binds it; nothing else on the machine
// races for loopback ports in practice.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// boot starts redpatchd with the given cache directory and extra flags
// and waits for GET /readyz to answer 200. It returns the time from exec
// to that answer. The daemon dies with this process (Pdeathsig), so no
// exit path of the harness leaves one behind.
func boot(bin, cacheDir string, extra ...string) (*daemon, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, fmt.Errorf("choosing a port: %w", err)
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	args := append([]string{"-addr", addr, "-cache-dir", cacheDir, "-cache-flush", "0"}, extra...)
	cmd := exec.Command(bin, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting redpatchd: %w", err)
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, pid: cmd.Process.Pid}
	probe := &http.Client{Timeout: time.Second}
	deadline := start.Add(60 * time.Second)
	for {
		resp, err := probe.Get(d.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				probe.CloseIdleConnections()
				return d, time.Since(start), nil
			}
		}
		if time.Now().After(deadline) || !d.alive() {
			d.kill()
			return nil, 0, fmt.Errorf("redpatchd on %s never became ready", addr)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// alive reports whether the process still exists (and is not a zombie
// awaiting its reaper).
func (d *daemon) alive() bool {
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.pid))
	if err != nil {
		return false
	}
	f := statFields(stat)
	return len(f) > 0 && f[0] != "Z"
}

// kill SIGKILLs the daemon and waits for it to exit.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill() // already gone is fine
	_ = d.cmd.Wait()         // killed: the exit status is expected
}

// term sends SIGTERM, which makes redpatchd drain and dump its memo, and
// waits for a clean exit.
func (d *daemon) term() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(30 * time.Second):
		d.kill()
		<-done
		return errors.New("redpatchd did not exit within 30s of SIGTERM")
	}
}

// statFields returns /proc/<pid>/stat's fields after the command name,
// starting with the state (field 3).
func statFields(stat []byte) []string {
	i := bytes.LastIndexByte(stat, ')')
	if i < 0 {
		return nil
	}
	return strings.Fields(string(stat[i+1:]))
}

// clockTick is USER_HZ, the unit of /proc CPU times on Linux.
const clockTick = 10 * time.Millisecond

// cpu returns the daemon's user+system CPU time so far.
func (d *daemon) cpu() (time.Duration, error) {
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.pid))
	if err != nil {
		return 0, err
	}
	f := statFields(stat)
	if len(f) < 13 {
		return 0, errors.New("short /proc stat line")
	}
	// utime and stime are fields 14 and 15, i.e. 11 and 12 after state.
	u, err1 := strconv.ParseInt(f[11], 10, 64)
	s, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(u+s) * clockTick, nil
}

// peakRSSMB returns the daemon's resident-set high-water mark (VmHWM).
func (d *daemon) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// selfCPU returns this process's user+system CPU time so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// prepare runs the unmeasured prep boot: a daemon with an empty cache
// directory streams the 4,096-design classic sweep and is stopped with
// SIGTERM, so it dumps its memo. It returns the dump's path.
func prepare(ctx context.Context, bin, dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	d, _, err := boot(bin, dir)
	if err != nil {
		return "", err
	}
	c := newConn(d.base)
	req := request{kind: kindSweep, body: mustJSON(sweepBody{SpecSweepRequest: prepSweep()})}
	res := c.send(ctx, req)
	if res.err == nil {
		res.err = checkStream(res.body, warmSetSize, nil)
	}
	c.close()
	if res.err != nil {
		d.kill()
		return "", fmt.Errorf("prep sweep: %w", res.err)
	}
	if err := d.term(); err != nil {
		return "", fmt.Errorf("stopping the prep daemon: %w", err)
	}
	dump := filepath.Join(dir, "default.cache.json")
	if _, err := os.Stat(dump); err != nil {
		return "", fmt.Errorf("prep daemon left no memo dump: %w", err)
	}
	return dump, nil
}

// copyFile copies src to dst.
func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// booter boots a workload's daemons, each from its own fresh copy of the
// prep dump.
type booter struct {
	bin, dump, dir string
	n              int
}

// boot starts one restored daemon and returns it with its exec-to-ready
// time.
func (b *booter) boot() (*daemon, string, time.Duration, error) {
	cacheDir := filepath.Join(b.dir, fmt.Sprintf("boot%d", b.n))
	b.n++
	if err := os.MkdirAll(cacheDir, 0o755); err != nil {
		return nil, "", 0, err
	}
	if err := copyFile(b.dump, filepath.Join(cacheDir, "default.cache.json")); err != nil {
		return nil, "", 0, fmt.Errorf("copying the memo dump: %w", err)
	}
	d, took, err := boot(b.bin, cacheDir)
	return d, cacheDir, took, err
}

// timeBoot boots a throwaway restored daemon and returns how long it
// took to become ready.
func (b *booter) timeBoot() (time.Duration, error) {
	d, cacheDir, took, err := b.boot()
	if err != nil {
		return 0, err
	}
	d.kill()
	return took, os.RemoveAll(cacheDir)
}

package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one running fairallocd child process.
type daemon struct {
	cmd    *exec.Cmd
	addr   string
	exited chan error
}

// startDaemon execs fairallocd on a loopback port chosen by the
// kernel and waits until /v1/healthz answers 200.
func startDaemon(bin, specPath, dataDir string) (*daemon, error) {
	args := []string{"-spec", specPath, "-addr", "127.0.0.1:0"}
	if dataDir != "" {
		args = append(args, "-data-dir", dataDir, "-fsync", "always")
	}
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	// If the benchmark dies, the daemon goes with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, exited: make(chan error, 1)}
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if _, a, ok := strings.Cut(sc.Text(), "listening on "); ok {
				addrCh <- a
			}
		}
		io.Copy(io.Discard, out)
		d.exited <- cmd.Wait()
	}()
	select {
	case d.addr = <-addrCh:
	case err := <-d.exited:
		return nil, fmt.Errorf("fairallocd exited before listening: %v", err)
	case <-time.After(30 * time.Second):
		d.kill()
		return nil, fmt.Errorf("fairallocd did not report its address")
	}
	hc := &http.Client{Timeout: time.Second}
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); {
		resp, err := hc.Get("http://" + d.addr + "/v1/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	d.kill()
	return nil, fmt.Errorf("fairallocd at %s never became healthy", d.addr)
}

// stop sends SIGTERM (a graceful drain) and waits for the exit,
// killing the process if the drain overruns.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return fmt.Errorf("signal fairallocd: %w", err)
	}
	select {
	case err := <-d.exited:
		return err
	case <-time.After(20 * time.Second):
		d.kill()
		return fmt.Errorf("fairallocd did not drain within 20s")
	}
}

func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.exited
}

// cpuSeconds is the daemon's utime+stime so far.
func (d *daemon) cpuSeconds() (float64, error) { return procCPU(d.cmd.Process.Pid) }

// peakRSSMB is the daemon's VmHWM.
func (d *daemon) peakRSSMB() (float64, error) { return procHWM(strconv.Itoa(d.cmd.Process.Pid)) }

// clkTck is the kernel's USER_HZ, which is 100 on every Linux ABI Go
// supports.
const clkTck = 100

func procCPU(pid int) (float64, error) {
	data, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(pid), "stat"))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields restart after ')'.
	s := string(data)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseFloat(fields[11], 64)
	st, err2 := strconv.ParseFloat(fields[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc/%d/stat", pid)
	}
	return (ut + st) / clkTck, nil
}

// procHWM reads VmHWM (peak resident set) of /proc/<pid>/status in MB.
func procHWM(pid string) (float64, error) {
	data, err := os.ReadFile(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

package main

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// parseSchedstat returns the first field of a task's schedstat file: the
// nanoseconds it has spent on a CPU. /proc/<pid>/stat has the same time
// in 10 ms ticks, a third of the 30 ms windows CPU is read in.
func parseSchedstat(b []byte) (int64, error) {
	f := strings.Fields(string(b))
	if len(f) != 3 {
		return 0, fmt.Errorf("proc schedstat: %d fields, want 3", len(f))
	}
	ns, err := strconv.ParseInt(f[0], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc schedstat: %w", err)
	}
	return ns, nil
}

// parseKeyed returns the first number on the line of a "Key: value" file
// (/proc/<pid>/status, /proc/<pid>/io) that starts with key.
func parseKeyed(b []byte, key string) (uint64, error) {
	for _, line := range strings.Split(string(b), "\n") {
		rest, ok := strings.CutPrefix(line, key+":")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) == 0 {
			break
		}
		v, err := strconv.ParseUint(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("proc %s: %w", key, err)
		}
		return v, nil
	}
	return 0, fmt.Errorf("proc: no %s line", key)
}

func procFile(pid int, name string) ([]byte, error) {
	return os.ReadFile(fmt.Sprintf("/proc/%d/%s", pid, name))
}

// cpuNs returns the CPU time a process has used: by getrusage for this
// process (pid 0), and for a running child by summing its threads'
// schedstat. A thread that has exited takes its time with it; barrierd's
// do not exit.
func cpuNs(pid int) (int64, error) {
	if pid == 0 {
		var ru syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
			return 0, fmt.Errorf("getrusage: %w", err)
		}
		return ru.Utime.Nano() + ru.Stime.Nano(), nil
	}
	tasks, err := os.ReadDir(fmt.Sprintf("/proc/%d/task", pid))
	if err != nil {
		return 0, err
	}
	var total int64
	for _, t := range tasks {
		b, err := procFile(pid, "task/"+t.Name()+"/schedstat")
		if err != nil {
			continue // the thread ended between the listing and the read
		}
		ns, err := parseSchedstat(b)
		if err != nil {
			return 0, err
		}
		total += ns
	}
	return total, nil
}

// peakRSSMiB returns the VmHWM of a process (pid 0: this one).
func peakRSSMiB(pid int) (float64, error) {
	if pid == 0 {
		pid = os.Getpid()
	}
	b, err := procFile(pid, "status")
	if err != nil {
		return 0, err
	}
	kb, err := parseKeyed(b, "VmHWM")
	return float64(kb) / 1024, err
}

// ioCalls returns the read and write system calls a process has made.
func ioCalls(pid int) (syscr, syscw uint64, err error) {
	b, err := procFile(pid, "io")
	if err != nil {
		return 0, 0, err
	}
	if syscr, err = parseKeyed(b, "syscr"); err != nil {
		return 0, 0, err
	}
	syscw, err = parseKeyed(b, "syscw")
	return syscr, syscw, err
}

// repoRoot finds the root of the softbarrier module at or above the
// working directory.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && strings.HasPrefix(string(b), "module softbarrier\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("not inside the softbarrier module (no go.mod declaring it at or above the working directory)")
		}
		dir = parent
	}
}

// buildDir is where the benchmark leaves what it builds and writes,
// relative to the repository root; .gitignore names it.
const buildDir = ".bench_build"

// buildBarrierd compiles cmd/barrierd from the tree under test, once per
// run and outside everything timed, and returns the binary's path.
func buildBarrierd() (string, error) {
	root, err := repoRoot()
	if err != nil {
		return "", err
	}
	bin := filepath.Join(root, buildDir, "barrierd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/barrierd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/barrierd: %w\n%s", err, out)
	}
	return bin, nil
}

// children is the set of live barrierd processes, so that an interrupt
// can take them down with the benchmark.
type children struct {
	mu   sync.Mutex
	live map[*daemon]struct{}
}

func (c *children) killAll() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for d := range c.live {
		d.kill()
	}
}

// daemon is one barrierd child process.
type daemon struct {
	cmd   *exec.Cmd
	addr  string        // from its "listening on" log line
	spawn time.Duration // exec to that line
	tail  chan struct{} // closed when its stderr has been read to the end
	owner *children
}

// startDaemon runs bin on an ephemeral loopback port, in a process group
// of its own, and waits for it to announce its address. Its stderr is
// read for as long as it lives: barrierd logs every join, and a full pipe
// would stall it.
func (c *children) startDaemon(bin string) (*daemon, error) {
	t0 := time.Now()
	cmd := exec.Command(bin, "-listen", "127.0.0.1:0")
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting barrierd: %w", err)
	}
	d := &daemon{cmd: cmd, tail: make(chan struct{}), owner: c}
	c.mu.Lock()
	if c.live == nil {
		c.live = make(map[*daemon]struct{})
	}
	c.live[d] = struct{}{}
	c.mu.Unlock()

	addr := make(chan string, 1) // one send: the first listening line
	go func() {
		defer close(d.tail)
		sc := bufio.NewScanner(stderr)
		announced := false
		for sc.Scan() {
			if announced {
				continue
			}
			if _, rest, ok := strings.Cut(sc.Text(), "listening on "); ok {
				a, _, _ := strings.Cut(rest, " ")
				addr <- a
				announced = true
			}
		}
	}()
	select {
	case d.addr = <-addr:
		d.spawn = time.Since(t0)
		return d, nil
	case <-d.tail:
		d.stop()
		return nil, errors.New("barrierd exited before listening")
	case <-time.After(20 * time.Second):
		d.stop()
		return nil, errors.New("barrierd did not announce its address within 20s")
	}
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// kill ends the daemon's whole process group.
func (d *daemon) kill() { _ = syscall.Kill(-d.pid(), syscall.SIGKILL) } // ESRCH once it is gone

// stop kills the daemon, waits for it and for its stderr reader, and
// returns what the kernel accounted to it over its life.
func (d *daemon) stop() *syscall.Rusage {
	d.kill()
	<-d.tail
	_ = d.cmd.Wait() // "signal: killed" is the expected outcome
	d.owner.mu.Lock()
	delete(d.owner.live, d)
	d.owner.mu.Unlock()
	ru, _ := d.cmd.ProcessState.SysUsage().(*syscall.Rusage)
	return ru
}

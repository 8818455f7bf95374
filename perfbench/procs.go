package main

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"os/exec"
	"os/signal"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// child is one server process the benchmark started. Its standard
// error is drained into a short tail for diagnostics; the first match
// of the address pattern, if any, is delivered on addr.
type child struct {
	name string
	cmd  *exec.Cmd
	addr chan string
	done chan struct{} // closed when the process has exited
	err  error         // Wait's result, valid after done

	mu       sync.Mutex
	tail     []string
	stopping bool // set before the benchmark kills it
}

// children tracks every live child so each exit path, an interrupt
// included, can kill and reap them.
var children struct {
	sync.Mutex
	list []*child
}

var listenAddr = regexp.MustCompile(` on (127\.0\.0\.1:\d+)`)

// startChild starts bin with args. Pdeathsig kills the child if the
// benchmark itself dies without running its own cleanup.
func startChild(name, bin string, args ...string) (*child, error) {
	cmd := exec.Command(bin, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	c := &child{name: name, cmd: cmd, addr: make(chan string, 1), done: make(chan struct{})}
	children.Lock()
	defer children.Unlock()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	children.list = append(children.list, c)
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		sc := bufio.NewScanner(stderr)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			if m := listenAddr.FindStringSubmatch(line); m != nil && !sent {
				c.addr <- m[1]
				sent = true
			}
			c.mu.Lock()
			c.tail = append(c.tail, line)
			if len(c.tail) > 20 {
				c.tail = c.tail[1:]
			}
			c.mu.Unlock()
		}
	}()
	go func() {
		<-drained // Wait closes the pipe; read it to the end first
		c.err = cmd.Wait()
		close(c.done)
	}()
	return c, nil
}

// died reports an exit the benchmark did not cause.
func (c *child) died() error {
	select {
	case <-c.done:
	default:
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.stopping {
		return nil
	}
	return fmt.Errorf("%s (pid %d) exited during the run: %v; last output:\n%s",
		c.name, c.cmd.Process.Pid, c.err, strings.Join(c.tail, "\n"))
}

// stop sends SIGTERM, then SIGKILL after two seconds, and waits for
// the process to be reaped.
func (c *child) stop() {
	c.mu.Lock()
	c.stopping = true
	c.mu.Unlock()
	select {
	case <-c.done:
		return
	default:
	}
	_ = c.cmd.Process.Signal(syscall.SIGTERM) // an exited process is reaped below either way
	select {
	case <-c.done:
	case <-time.After(2 * time.Second):
		_ = c.cmd.Process.Kill()
		<-c.done
	}
}

// waitAddr returns the address the child logged, or fails if it exits
// or stays silent for the timeout.
func (c *child) waitAddr(timeout time.Duration) (string, error) {
	select {
	case a := <-c.addr:
		return a, nil
	case <-c.done:
		return "", c.died()
	case <-time.After(timeout):
		return "", fmt.Errorf("%s logged no listen address within %v", c.name, timeout)
	}
}

// stopChildren stops every child still tracked.
func stopChildren() {
	children.Lock()
	list := children.list
	children.list = nil
	children.Unlock()
	var wg sync.WaitGroup
	for _, c := range list {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.stop()
		}()
	}
	wg.Wait()
}

// cleanupOnSignal stops every child and removes dir when the benchmark
// is interrupted, then exits with status 130. The returned function
// cancels the handler.
func cleanupOnSignal(dir string) (cancel func()) {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM, syscall.SIGHUP)
	quit := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		select {
		case s := <-sig:
			fmt.Fprintln(os.Stderr, "perfbench: interrupted by", s)
			stopChildren()
			os.RemoveAll(dir)
			os.Exit(130)
		case <-quit:
		}
	}()
	return func() {
		signal.Stop(sig)
		close(quit)
		wg.Wait()
	}
}

// vmHWM reads a running process's peak resident set size in MB from
// /proc/<pid>/status.
func vmHWM(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, fmt.Errorf("pid %d VmHWM: %w", pid, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// freePort returns a loopback port that was free a moment ago.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	_, port, err := net.SplitHostPort(ln.Addr().String())
	if err != nil {
		return 0, err
	}
	return strconv.Atoi(port)
}

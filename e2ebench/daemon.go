package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/rewind-db/rewind/client"
	"github.com/rewind-db/rewind/server"
)

// maxArena lets the arena grow: at the fixed 256 MiB default the 100k-key
// preload exhausts it (the log of a preload that outruns the first
// checkpoint is larger than the data) and rewindd panics.
const maxArena = "2147483648"

// logBuf collects a daemon's log output.
type logBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *logBuf) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *logBuf) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// daemon is one rewindd process.
type daemon struct {
	cmd  *exec.Cmd
	addr string
	log  *logBuf
	done chan struct{}
}

func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

func startDaemon(bin, addr, backing string, wl *workload) (*daemon, error) {
	args := []string{"-addr", addr, "-backing", backing, "-max-arena", maxArena,
		"-compact-every", strconv.Itoa(wl.compactEvery)}
	cmd := exec.Command(bin, args...)
	lb := &logBuf{}
	cmd.Stdout, cmd.Stderr = lb, lb
	// The daemon must not outlive the benchmark, however it ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting rewindd: %w", err)
	}
	d := &daemon{cmd: cmd, addr: addr, log: lb, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // a SIGKILLed daemon's exit status is the expected error
		close(d.done)
	}()
	return d, nil
}

// kill SIGKILLs the daemon and waits for it to be gone.
func (d *daemon) kill() {
	if d == nil {
		return
	}
	_ = d.cmd.Process.Signal(syscall.SIGKILL) // fails only if it already exited
	<-d.done
}

// served dials until the daemon answers a GET of key, and returns when it
// did (found or not).
func (d *daemon) served(key uint64, timeout time.Duration) (time.Time, error) {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		select {
		case <-d.done:
			return time.Time{}, fmt.Errorf("rewindd exited:\n%s", d.log)
		default:
		}
		cl := client.Dial(d.addr, client.Options{Conns: 1, Retries: -1, DialTimeout: 100 * time.Millisecond})
		_, err := cl.Get(key)
		cl.Close()
		if err == nil || errors.Is(err, client.ErrNotFound) {
			return time.Now(), nil
		}
		time.Sleep(time.Millisecond)
	}
	return time.Time{}, fmt.Errorf("rewindd did not serve within %v:\n%s", timeout, d.log)
}

func fetchStats(cl *client.Client) (server.Stats, error) {
	var st server.Stats
	doc, err := cl.Stats()
	if err != nil {
		return st, err
	}
	return st, json.Unmarshal(doc, &st)
}

// diskBytes is the backing file's allocated size.
func diskBytes(path string) (int64, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	if st, ok := fi.Sys().(*syscall.Stat_t); ok {
		return st.Blocks * 512, nil
	}
	return fi.Size(), nil
}

// recoveryLine returns the restart log line rewindd prints when it
// recovered from a crash (records scanned, losers, and the analysis, redo
// and undo times), or ok=false when it printed none.
func recoveryLine(log string) (line string, ok bool) {
	for _, l := range strings.Split(log, "\n") {
		if strings.Contains(l, "recovered from crash:") {
			return l, true
		}
	}
	return "", false
}

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
	"sync"
	"syscall"
	"time"
)

// daemon is a child fsdepd with its own fresh store.
type daemon struct {
	cmd  *exec.Cmd
	url  string
	dir  string
	pid  string
	done chan struct{} // closed once the process has been waited for
	err  error         // Wait's result, valid after done
}

// startDaemon starts fsdepd on an ephemeral port with -warm and an
// empty store, and returns once /v1/ping answers.
func startDaemon(e *env) (*daemon, error) {
	if e.fsdepd == "" {
		return nil, errors.New("--fsdepd is required for this workload")
	}
	dir, err := os.MkdirTemp(e.work, "fsdepd-")
	if err != nil {
		return nil, err
	}
	urlFile := filepath.Join(dir, "url")
	logf, err := os.Create(filepath.Join(dir, "log"))
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	defer logf.Close()
	cmd := exec.Command(e.fsdepd, "-addr", "127.0.0.1:0", "-url-file", urlFile, "-warm",
		"-cache-dir", filepath.Join(dir, "store"))
	cmd.Stdout, cmd.Stderr = logf, logf
	// The daemon must not outlive the benchmark, even if it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("starting fsdepd: %w", err)
	}
	d := &daemon{cmd: cmd, dir: dir, pid: strconv.Itoa(cmd.Process.Pid), done: make(chan struct{})}
	go func() {
		d.err = cmd.Wait()
		close(d.done)
	}()
	deadline := time.Now().Add(60 * time.Second)
	for {
		if b, err := os.ReadFile(urlFile); err == nil && strings.HasSuffix(string(b), "\n") {
			d.url = strings.TrimSpace(string(b))
			if res, err := http.Get(d.url + "/v1/ping"); err == nil {
				io.Copy(io.Discard, res.Body)
				res.Body.Close()
				if res.StatusCode == http.StatusOK {
					return d, nil
				}
			}
		}
		select {
		case <-d.done:
			log, _ := os.ReadFile(filepath.Join(dir, "log"))
			os.RemoveAll(dir)
			return nil, fmt.Errorf("fsdepd exited during start-up: %v\n%s", d.err, log)
		case <-time.After(200 * time.Microsecond):
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, errors.New("fsdepd did not answer /v1/ping within 60s")
		}
	}
}

// stop ends the daemon with SIGTERM (SIGKILL after 10s), waits for it
// and removes its store.
func (d *daemon) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(10 * time.Second):
		d.cmd.Process.Kill()
		<-d.done
	}
	os.RemoveAll(d.dir)
}

// stats fetches /v1/stats.
func (d *daemon) stats() (daemonStats, error) {
	var st daemonStats
	res, err := http.Get(d.url + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		return st, fmt.Errorf("/v1/stats: %s", res.Status)
	}
	return st, json.NewDecoder(res.Body).Decode(&st)
}

// daemonStats is the part of /v1/stats the benchmark reads.
type daemonStats struct {
	Store *struct {
		Writes uint64 `json:"writes"`
	} `json:"store"`
	Service struct {
		Shed           uint64 `json:"shed"`
		BatchRawBytes  uint64 `json:"batch_raw_bytes"`
		BatchWireBytes uint64 `json:"batch_wire_bytes"`
	} `json:"service"`
}

// writes is the store's durable record writes so far.
func (st daemonStats) writes() uint64 {
	if st.Store == nil {
		return 0
	}
	return st.Store.Writes
}

// conns counts the benchmark's live HTTP connections per address, and
// maxConns is the most it ever held to one address at once.
var conns = struct {
	sync.Mutex
	open map[string]int
	max  int
}{open: map[string]int{}}

func maxConns() int {
	conns.Lock()
	defer conns.Unlock()
	return conns.max
}

// limitConnections caps the default transport, which every HTTP
// client of the benchmark uses (remote.Client included), at n
// connections per host and counts them.
func limitConnections(n int) {
	t := http.DefaultTransport.(*http.Transport)
	t.MaxConnsPerHost = n
	t.MaxIdleConnsPerHost = n
	dial := t.DialContext
	t.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
		c, err := dial(ctx, network, addr)
		if err != nil {
			return nil, err
		}
		conns.Lock()
		conns.open[addr]++
		conns.max = max(conns.max, conns.open[addr])
		conns.Unlock()
		return &countedConn{Conn: c, addr: addr}, nil
	}
}

type countedConn struct {
	net.Conn
	addr   string
	closed sync.Once
}

func (c *countedConn) Close() error {
	c.closed.Do(func() {
		conns.Lock()
		conns.open[c.addr]--
		conns.Unlock()
	})
	return c.Conn.Close()
}

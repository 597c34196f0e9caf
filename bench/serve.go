package main

import (
	"bufio"
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
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"

	"privtree/internal/server"
)

// This file is the privtreed side of the HTTP workloads: the benchmark
// binary re-executed with -serve runs server.New with privtreed's
// defaults (no rate limit, default chunk and body cap) over a FileStore,
// and adds, outside the server, a span middleware, a timing KeyStore
// and two control routes that bracket the timed phase.

// timedStore times the KeyStore calls the handlers make.
type timedStore struct {
	server.KeyStore
	tr *tracer
}

func (s timedStore) Put(tenant, name string, wire []byte) (created bool, err error) {
	err = s.tr.do("server.store.put", nil, func() (e error) {
		created, e = s.KeyStore.Put(tenant, name, wire)
		return e
	})
	return created, err
}

func (s timedStore) Get(tenant, name string) (wire []byte, err error) {
	err = s.tr.do("server.store.get", nil, func() (e error) {
		wire, e = s.KeyStore.Get(tenant, name)
		return e
	})
	return wire, err
}

// requestIDHeader carries the load generator's request ID, so the
// server's spans join the client's.
const requestIDHeader = "X-Request-ID"

// laneOf maps a request ID "r<n>" to trace lane n.
func laneOf(id string) int64 {
	n, _ := strconv.ParseInt(strings.TrimPrefix(id, "r"), 10, 64)
	return n
}

// childReport is what POST /bench/stop answers.
type childReport struct {
	Phase phaseStats `json:"phase"`
	Spans []span     `json:"spans"`
}

// serveChild runs privtreed over the key store in keysDir on a free
// loopback port, writes the address as the first line of stdout, and
// serves until stdin closes.
func serveChild(keysDir string, traced bool, stdin io.Reader, stdout io.Writer) error {
	fs, err := server.NewFileStore(keysDir)
	if err != nil {
		return err
	}
	var tr *tracer
	if traced {
		tr = newTracer(2)
	}
	srv, err := server.New(server.Config{Keys: timedStore{fs, tr}, Workers: workers})
	if err != nil {
		return err
	}
	var (
		mu sync.Mutex
		ph *phase
	)
	mux := http.NewServeMux()
	mux.HandleFunc("POST /bench/start", func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		tr.take()
		ph = beginPhase()
	})
	mux.HandleFunc("POST /bench/stop", func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		if ph == nil {
			http.Error(w, "no phase started", http.StatusConflict)
			return
		}
		rep := childReport{Phase: ph.end(), Spans: tr.take()}
		ph = nil
		// Settle now, so that the load's garbage is not collected or
		// its memory returned while the host probe runs after the load.
		debug.FreeOSMemory()
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(&rep) // a failed write shows up as a decode error at the client
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(requestIDHeader)
		s := tr.open("server.handler", 0, id, laneOf(id))
		srv.ServeHTTP(w, r)
		tr.close(s)
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	if _, err := fmt.Fprintln(stdout, ln.Addr().String()); err != nil {
		_ = hs.Close()
		return err
	}
	_, _ = io.Copy(io.Discard, stdin) // returns when the parent closes stdin or exits
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		_ = hs.Close()
	}
	if err := <-serveErr; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// child is a running privtreed child process.
type child struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	base  string
}

// startChild starts the child and returns once /healthz answers 200.
func startChild(keysDir string, traced bool) (*child, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-serve", keysDir}
	if traced {
		args = append(args, "-trace", "1")
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(workers))
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	c := &child{cmd: cmd, stdin: stdin}
	addr, err := bufio.NewReader(stdout).ReadString('\n')
	if err != nil {
		c.stop()
		return nil, fmt.Errorf("privtreed child did not announce its address: %w", err)
	}
	c.base = "http://" + strings.TrimSpace(addr)
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(c.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return c, nil
			}
		}
		if time.Now().After(deadline) {
			c.stop()
			return nil, fmt.Errorf("privtreed child not healthy after 10s (last error: %v)", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop closes the child's stdin, which makes it shut down, and waits
// for it to exit; a child that does not exit within 15 s is killed.
func (c *child) stop() error {
	c.stdin.Close()
	done := make(chan error, 1)
	go func() { done <- c.cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(15 * time.Second):
		_ = c.cmd.Process.Kill()
		<-done
		return errors.New("privtreed child killed after 15s")
	}
}

// control posts to one of the child's /bench routes.
func (c *child) control(route string, out any) error {
	resp, err := http.Post(c.base+"/bench/"+route, "text/plain", bytes.NewReader(nil))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("/bench/%s: %s", route, resp.Status)
	}
	if out == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		return err
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

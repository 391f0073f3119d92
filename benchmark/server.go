package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"syscall"
	"time"

	"repro/internal/service"
)

// server is a queryserver subprocess on a loopback port.
type server struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	client *http.Client
	exited chan struct{} // closed once Wait has returned
}

// freePort asks the kernel for an unused loopback port. Another process
// could take it before queryserver binds; startServer then fails and the
// run is reported as failed, not retried.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer execs queryserver with default slots and returns once
// /healthz answers. On any failure the subprocess is stopped and reaped.
func startServer(binary string, sf float64, conns int) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, fmt.Errorf("free port: %w", err)
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(binary, "-addr", addr,
		"-sf", strconv.FormatFloat(sf, 'g', -1, 64), "-seed", strconv.FormatInt(dataSeed, 10))
	var log bytes.Buffer // queryserver logs a few lines; they explain a failed start
	cmd.Stdout, cmd.Stderr = io.Discard, &log
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start queryserver: %w", err)
	}
	s := &server{
		cmd:  cmd,
		base: "http://" + addr,
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConns: conns, MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns,
		}},
		exited: make(chan struct{}),
	}
	go func() {
		_ = cmd.Wait() // the exit status of a server we signal ourselves says nothing
		close(s.exited)
	}()
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := s.client.Get(s.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case <-s.exited:
			return nil, fmt.Errorf("queryserver exited before it was ready (port %d): %s", port, bytes.TrimSpace(log.Bytes()))
		default:
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("queryserver not ready after 60s")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop sends SIGTERM, waits for the process to end, and kills it if the
// drain takes longer than 10 s. It returns only once the process is reaped.
func (s *server) stop() {
	s.client.CloseIdleConnections()
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // fails only if it has already exited
	select {
	case <-s.exited:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
}

// get issues one request, reads the whole body into buf, and reports the time
// from request write to response headers. sp, which may be nil, receives a
// child span for the wait for the headers and one for the body.
func (s *server) get(ctx context.Context, path string, buf *bytes.Buffer, sp *spanRef) (ttfb time.Duration, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+path, nil)
	if err != nil {
		return 0, err
	}
	h := sp.child("http.headers")
	t0 := time.Now()
	resp, err := s.client.Do(req)
	h.end()
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	ttfb = time.Since(t0)
	b := sp.child("http.body")
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	b.end()
	if err != nil {
		return 0, fmt.Errorf("read body: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(buf.Bytes()))
	}
	return ttfb, nil
}

// statsz fetches the gateway's snapshot.
func (s *server) statsz(ctx context.Context) (*service.Stats, error) {
	var buf bytes.Buffer
	if _, err := s.get(ctx, "/statsz", &buf, nil); err != nil {
		return nil, fmt.Errorf("statsz: %w", err)
	}
	var st service.Stats
	if err := json.Unmarshal(buf.Bytes(), &st); err != nil {
		return nil, fmt.Errorf("statsz: %w", err)
	}
	return &st, nil
}

// serverTarget starts queryserver and serves queries over HTTP.
func serverTarget(cfg *runConfig, specs []querySpec) (*target, error) {
	if _, err := os.Stat(cfg.queryserver); err != nil {
		return nil, fmt.Errorf("queryserver binary: %w", err)
	}
	srv, err := startServer(cfg.queryserver, cfg.sf, httpClients)
	if err != nil {
		return nil, err
	}
	bufs := make([]bytes.Buffer, httpClients)
	return &target{
		pid: srv.cmd.Process.Pid, srv: srv,
		do: func(ctx context.Context, client, q int, sp *spanRef) (reply, error) {
			x := sp.child("http.roundtrip")
			ttfb, err := srv.get(ctx, specs[q].url, &bufs[client], x)
			x.end()
			// The body is parsed only after the latency timestamp.
			return reply{body: bufs[client].Bytes(), cols: specs[q].cols, ttfb: ttfb}, err
		},
		counters: func() (counters, error) {
			st, err := srv.statsz(context.Background())
			if err != nil {
				return counters{}, err
			}
			c := counters{gateway: st}
			if st.Engine != nil {
				c.engine = *st.Engine
			}
			if st.CJoin != nil {
				c.cjoin = *st.CJoin
			}
			if st.Storage != nil {
				c.decode = *st.Storage
			}
			return c, nil
		},
		close: srv.stop,
	}, nil
}

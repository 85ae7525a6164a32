package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/circuit"
	"repro/internal/perm"
	"repro/internal/service"
)

// readyTimeout bounds how long a revserve process may take to build
// its store and report healthy.
const readyTimeout = 150 * time.Second

// requestTimeout bounds one request on a client connection.
const requestTimeout = time.Minute

// frontSys is one revserve process serving HTTP on addr over the store
// it built and persisted in dir.
type frontSys struct {
	cmd    *exec.Cmd
	addr   string
	dir    string
	exited chan error
}

// startRevserve launches revserve with production defaults and waits
// until /healthz reports ok.
func startRevserve(ctx context.Context, bin, dir string, k int) (*frontSys, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	s := &frontSys{
		addr:   net.JoinHostPort("127.0.0.1", strconv.Itoa(port)),
		dir:    dir,
		exited: make(chan error, 1),
	}
	// Standard output and error go to the null device: revserve's
	// per-request log is part of the serving cost, not of the result.
	s.cmd = exec.Command(bin, "-addr", s.addr, "-tables", filepath.Join(dir, "tables"), "-k", strconv.Itoa(k))
	// Should the benchmark itself be killed, the kernel stops revserve.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}
	go func() { s.exited <- s.cmd.Wait() }()
	deadline := time.Now().Add(readyTimeout)
	for {
		select {
		case err := <-s.exited:
			return nil, fmt.Errorf("revserve exited before ready: %v", err)
		case <-ctx.Done():
			s.close()
			return nil, ctx.Err()
		case <-time.After(10 * time.Millisecond):
		}
		if s.healthy(ctx) {
			return s, nil
		}
		if time.Now().After(deadline) {
			s.close()
			return nil, fmt.Errorf("revserve not healthy after %v", readyTimeout)
		}
	}
}

func (s *frontSys) healthy(ctx context.Context) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+s.addr+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// close stops revserve (SIGTERM, then SIGKILL after 10 s), waits for it
// and removes its store.
func (s *frontSys) close() error {
	var err error
	if perr := s.cmd.Process.Signal(syscall.SIGTERM); perr == nil {
		select {
		case <-s.exited:
		case <-time.After(10 * time.Second):
			err = s.cmd.Process.Kill()
			<-s.exited
		}
	} else if !errors.Is(perr, os.ErrProcessDone) {
		err = perr
	}
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	port := l.Addr().(*net.TCPAddr).Port
	return port, l.Close()
}

// getJSON fetches path from revserve and decodes its JSON body into v.
func (s *frontSys) getJSON(ctx context.Context, path string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+s.addr+path, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// rejected sums the traffic layer's refusals (rate limit and load
// shedding) from revserve's /metrics.
func (s *frontSys) rejected(ctx context.Context) (float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+s.addr+"/metrics", nil)
	if err != nil {
		return 0, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	total := 0.0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if ok && (name == "revserve_http_ratelimited_total" || name == "revserve_http_shed_total") {
			v, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return 0, fmt.Errorf("/metrics %s: %v", name, err)
			}
			total += v
		}
	}
	return total, sc.Err()
}

// synthReply is the part of revserve's /synthesize answer the check
// reads.
type synthReply struct {
	Cost    int    `json:"cost"`
	Circuit string `json:"circuit"`
	Err     string `json:"err"`
}

// httpLayers measures revserve's HTTP front door for the traced run:
// a revserve process, built from cmd/revserve with production defaults,
// answers the workload's stream over one keep-alive connection per
// client for half of --seconds, after a warm-up. Its answers are
// checked like the workload's own.
func httpLayers(ctx context.Context, cfg *config, out *outcome, stream []perm.Perm, ref *reference) error {
	dir, err := roundDir(cfg, "http", 0)
	if err != nil {
		return err
	}
	sys, err := startRevserve(ctx, filepath.Join(cfg.binDir, "revserve"), dir, cfg.k)
	if err != nil {
		return err
	}
	defer sys.close()
	urls := make([]string, len(stream))
	for i, f := range stream {
		urls[i] = "/synthesize?spec=" + url.QueryEscape(f.String())
	}
	conns := make([]*frontConn, cfg.clients)
	defer func() {
		for _, c := range conns {
			c.close()
		}
	}()
	loop := closedLoop{
		clients: cfg.clients,
		tamper:  cfg.tamper,
		stride:  1,
		next:    newCursor(cfg.clients, len(stream)).next,
		do: func(_ context.Context, c, i int) (circuit.Circuit, error) {
			if conns[c] == nil {
				conns[c] = &frontConn{addr: sys.addr}
			}
			var rep synthReply
			if err := conns[c].get(urls[i], &rep); err != nil {
				return nil, fmt.Errorf("%s: %w", urls[i], err)
			}
			return circuit.Parse(rep.Circuit)
		},
		check: func(i int, c circuit.Circuit) error { return ref.check(stream[i], c) },
	}
	loop.d = warmup
	out.count(loop.run(ctx))

	var before, after service.Stats
	if err := sys.getJSON(ctx, "/stats", &before); err != nil {
		return err
	}
	rejBefore, err := sys.rejected(ctx)
	if err != nil {
		return err
	}
	loop.d = cfg.duration() / 2
	r := loop.run(ctx)
	out.count(r)
	if err := sys.getJSON(ctx, "/stats", &after); err != nil {
		return err
	}
	rejAfter, err := sys.rejected(ctx)
	if err != nil {
		return err
	}
	// Both sides of the difference cover the same requests: every
	// request of the measured phase, each timed by the client.
	var clientSum time.Duration
	for _, d := range r.lat {
		clientSum += d
	}
	if n := after.Queries - before.Queries; n > 0 && len(r.lat) > 0 {
		clientUS := us(clientSum) / float64(len(r.lat))
		serviceUS := (after.LatencySum - before.LatencySum) / float64(n) * 1e6
		out.set("http.overhead_us", clientUS-serviceUS, "us")
	}
	out.set("ops.rejected", rejAfter-rejBefore, "count")
	return nil
}

// frontConn is one client's keep-alive HTTP/1.1 connection to revserve.
// Requests are written and answers read on the calling goroutine, so a
// request costs the client no hand-offs between goroutines, as
// net/http's transport would add.
type frontConn struct {
	addr string
	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer
}

// get sends GET path and decodes the 200 answer's JSON body into v. If
// a reused connection turns out closed before any of the answer arrived
// (revserve may drop idle connections), it is redialled and the request
// sent once more, as net/http does for idempotent requests.
func (c *frontConn) get(path string, v any) error {
	reused := c.conn != nil
	err := c.roundTrip(path, v)
	if reused && errors.Is(err, errConnGone) {
		err = c.roundTrip(path, v)
	}
	return err
}

// errConnGone marks a request lost with its connection before any of
// the answer arrived.
var errConnGone = errors.New("connection closed before the answer")

func (c *frontConn) roundTrip(path string, v any) error {
	if c.conn == nil {
		conn, err := net.Dial("tcp", c.addr)
		if err != nil {
			return err
		}
		c.conn, c.r, c.w = conn, bufio.NewReader(conn), bufio.NewWriter(conn)
	}
	keep := false
	defer func() {
		if !keep {
			c.close()
		}
	}()
	if err := c.conn.SetDeadline(time.Now().Add(requestTimeout)); err != nil {
		return err
	}
	fmt.Fprintf(c.w, "GET %s HTTP/1.1\r\nHost: %s\r\n\r\n", path, c.addr)
	if err := c.w.Flush(); err != nil {
		return fmt.Errorf("%w: %v", errConnGone, err)
	}
	resp, err := http.ReadResponse(c.r, nil)
	if err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, syscall.ECONNRESET) {
			return fmt.Errorf("%w: %v", errConnGone, err)
		}
		return err
	}
	derr := json.NewDecoder(resp.Body).Decode(v)
	_, cerr := io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	keep = cerr == nil && !resp.Close
	switch {
	case resp.StatusCode != http.StatusOK:
		return fmt.Errorf("%s: %+v", resp.Status, v)
	case derr != nil:
		return derr
	}
	return cerr
}

func (c *frontConn) close() {
	if c != nil && c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
}

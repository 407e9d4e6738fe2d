package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
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

// daemon is one bloomrfd process the benchmark started. The benchmark
// owns its lifetime: every daemon is stopped, and waited for, before the
// benchmark exits (procs.stopAll).
type daemon struct {
	name string
	addr string // host:port
	cmd  *exec.Cmd
	log  *os.File
	done chan struct{} // closed once the process has been reaped
}

// procs tracks every daemon started in this run.
type procs struct {
	bin  string
	dir  string
	live []*daemon
}

// freeAddr picks an unused loopback port.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("picking a port: %w", err)
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// start launches bloomrfd with the given flags on addr (a fresh port when
// empty) and waits until /healthz answers.
func (p *procs) start(ctx context.Context, name, addr string, flags ...string) (*daemon, error) {
	if addr == "" {
		var err error
		if addr, err = freeAddr(); err != nil {
			return nil, err
		}
	}
	logf, err := os.OpenFile(filepath.Join(p.dir, name+".log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("opening %s log: %w", name, err)
	}
	args := append([]string{"-addr", addr, "-slow-request-threshold", "0"}, flags...)
	cmd := exec.Command(p.bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The daemon dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting bloomrfd (%s): %w", name, err)
	}
	d := &daemon{name: name, addr: addr, cmd: cmd, log: logf, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // exit status is irrelevant: the benchmark kills daemons on purpose
		logf.Close()
		close(d.done)
	}()
	p.live = append(p.live, d)
	if err := d.waitHealthy(ctx, 60*time.Second); err != nil {
		p.kill(d)
		return nil, err
	}
	return d, nil
}

func (d *daemon) url() string { return "http://" + d.addr }

// waitHealthy polls /healthz until it answers 200.
func (d *daemon) waitHealthy(ctx context.Context, limit time.Duration) error {
	cl := &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		select {
		case <-d.done:
			return fmt.Errorf("bloomrfd (%s) exited during start-up; see %s", d.name, d.log.Name())
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		// A refused connect is cheap, so the port is polled finely; only
		// once it accepts is /healthz asked.
		if c, err := net.Dial("tcp", d.addr); err == nil {
			c.Close()
			resp, err := cl.Get(d.url() + "/healthz")
			if err == nil {
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return nil
				}
			}
		}
		sleepUntil(time.Now().Add(healthPoll))
	}
	return fmt.Errorf("bloomrfd (%s) not healthy after %s", d.name, limit)
}

// kill sends SIGKILL (a crash, no final snapshot) and waits for the exit.
func (p *procs) kill(d *daemon) {
	_ = d.cmd.Process.Signal(syscall.SIGKILL)
	<-d.done
	p.forget(d)
}

// stop sends SIGTERM (graceful drain) and waits, escalating to SIGKILL
// after a grace period.
func (p *procs) stop(d *daemon) {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(20 * time.Second):
		_ = d.cmd.Process.Signal(syscall.SIGKILL)
		<-d.done
	}
	p.forget(d)
}

func (p *procs) forget(d *daemon) {
	for i, x := range p.live {
		if x == d {
			p.live = append(p.live[:i], p.live[i+1:]...)
			return
		}
	}
}

// stopAll kills every daemon still running and waits for each.
func (p *procs) stopAll() {
	for len(p.live) > 0 {
		p.kill(p.live[0])
	}
}

// status reads one kB-valued field of /proc/<pid>/status, in MiB.
func (d *daemon) status(field string) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, fmt.Errorf("reading bloomrfd status: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == field {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, fmt.Errorf("parsing %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("%s missing from /proc status", field)
}

// cpuSeconds returns the CPU time, user plus system, the process has used
// so far. The kernel leaves out time the hypervisor stole.
func (d *daemon) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, fmt.Errorf("reading bloomrfd stat: %w", err)
	}
	// The command name is parenthesised and may hold spaces; utime and
	// stime are the 14th and 15th fields, the 12th and 13th after it.
	f := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat %q", b)
	}
	var ticks float64
	for _, s := range f[11:13] {
		t, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return 0, fmt.Errorf("parsing /proc stat: %w", err)
		}
		ticks += t
	}
	return ticks / 100, nil // USER_HZ
}

// control is the benchmark's control-plane client: one connection, used
// for creates, snapshots, status polls and /metrics scrapes, never for
// generated load.
type control struct{ cl *http.Client }

func newControl() *control {
	return &control{cl: &http.Client{
		Timeout:   120 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
	}}
}

// do sends a request and decodes a JSON answer into out (when non-nil).
func (c *control) do(method, url string, body []byte, out any) error {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.cl.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("%s %s: reading body: %w", method, url, err)
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: %s: %s", method, url, resp.Status, bytes.TrimSpace(b))
	}
	if out != nil {
		if err := json.Unmarshal(b, out); err != nil {
			return fmt.Errorf("%s %s: decoding answer: %w", method, url, err)
		}
	}
	return nil
}

// metrics is one /metrics scrape: series text (name plus labels) → value.
type metrics map[string]float64

func (c *control) scrape(d *daemon) (metrics, error) {
	resp, err := c.cl.Get(d.url() + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	defer resp.Body.Close()
	m := metrics{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		m[line[:i]] = v
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("reading /metrics: %w", err)
	}
	return m, nil
}

// sum adds every series of a family whose labels contain all the given
// label="value" pairs.
func (m metrics) sum(family string, labels ...string) float64 {
	var s float64
	for k, v := range m {
		name, rest, _ := strings.Cut(k, "{")
		if name != family {
			continue
		}
		ok := true
		for _, l := range labels {
			if !strings.Contains(rest, l) {
				ok = false
				break
			}
		}
		if ok {
			s += v
		}
	}
	return s
}

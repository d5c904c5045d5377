package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// proc is one running caram-server or caram-router.
type proc struct {
	name     string
	cmd      *exec.Cmd
	addr     string // wire listen address
	httpAddr string // /metrics listen address
	exited   chan struct{}
}

var (
	reAddr = regexp.MustCompile(`\baddr=(\S+)`)
	reHTTP = regexp.MustCompile(`\bmetrics=http://([^/\s]+)/metrics`)
	reLE   = regexp.MustCompile(`le="([^"]+)"`)
)

// startProc runs bin with args, copies its log to logPath, and waits for
// the line announcing that it accepts connections (msg=serving or
// msg=routing), taking the listen addresses from its log.
func startProc(name, bin, logPath string, args ...string) (*proc, error) {
	cmd := exec.Command(bin, args...)
	// The kernel kills the child if the benchmark dies first, so an
	// interrupted run leaves no server behind.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	p := &proc{name: name, cmd: cmd, exited: make(chan struct{})}
	ready := make(chan error, 1)
	go func() {
		defer logf.Close()
		sc := bufio.NewScanner(stderr)
		announced := false
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(logf, line)
			if m := reHTTP.FindStringSubmatch(line); m != nil {
				p.httpAddr = m[1]
			}
			if !announced && (strings.Contains(line, "msg=serving") || strings.Contains(line, "msg=routing")) {
				if m := reAddr.FindStringSubmatch(line); m != nil {
					p.addr = m[1]
					announced = true
					ready <- nil
				}
			}
		}
		io.Copy(io.Discard, stderr)
		if !announced {
			ready <- fmt.Errorf("%s exited before serving (log: %s)", name, logPath)
		}
	}()
	go func() {
		cmd.Wait()
		close(p.exited)
	}()
	select {
	case err := <-ready:
		if err != nil {
			p.stop()
			return nil, err
		}
		return p, nil
	case <-time.After(60 * time.Second):
		p.stop()
		return nil, fmt.Errorf("%s: not serving after 60s (log: %s)", name, logPath)
	}
}

// peakRSSMB reads the process's high-water resident set size.
func (p *proc) peakRSSMB() float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// stop asks for a graceful shutdown and waits for the process to end,
// killing it if it has not ended after 20 seconds.
func (p *proc) stop() {
	if p == nil {
		return
	}
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.exited:
	case <-time.After(20 * time.Second):
		p.cmd.Process.Kill()
		<-p.exited
	}
}

// scrape is one reading of a process's /metrics exposition: sample
// name with labels -> value.
type scrape map[string]float64

func scrapeMetrics(httpAddr string) (scrape, error) {
	cl := http.Client{Timeout: 10 * time.Second}
	resp, err := cl.Get("http://" + httpAddr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	s := scrape{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
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
		s[line[:i]] = v
	}
	return s, sc.Err()
}

// sum adds every sample of family whose labels contain all of the
// given label="value" fragments.
func (s scrape) sum(family string, labels ...string) float64 {
	t := 0.0
	for k, v := range s {
		name := k
		if i := strings.IndexByte(k, '{'); i >= 0 {
			name = k[:i]
		}
		if name != family {
			continue
		}
		ok := true
		for _, l := range labels {
			if !strings.Contains(k, l) {
				ok = false
				break
			}
		}
		if ok {
			t += v
		}
	}
	return t
}

// delta returns after - before for every sample of after.
func delta(before, after scrape) scrape {
	d := scrape{}
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// histQuantile estimates the q-quantile of a Prometheus histogram
// family (summed over the matching label sets) by linear interpolation
// inside the bucket that holds it.
func (s scrape) histQuantile(family string, q float64, labels ...string) float64 {
	type bucket struct{ le, n float64 }
	byLE := map[float64]float64{}
	for k, v := range s {
		if !strings.HasPrefix(k, family+"_bucket{") {
			continue
		}
		ok := true
		for _, l := range labels {
			if !strings.Contains(k, l) {
				ok = false
				break
			}
		}
		m := reLE.FindStringSubmatch(k)
		if !ok || m == nil {
			continue
		}
		le, err := strconv.ParseFloat(m[1], 64)
		if err != nil {
			continue
		}
		byLE[le] += v
	}
	var bs []bucket
	for le, n := range byLE {
		bs = append(bs, bucket{le, n})
	}
	if len(bs) == 0 {
		return 0
	}
	// Cumulative counts, ascending edges.
	for i := 1; i < len(bs); i++ {
		for j := i; j > 0 && bs[j].le < bs[j-1].le; j-- {
			bs[j], bs[j-1] = bs[j-1], bs[j]
		}
	}
	total := bs[len(bs)-1].n
	if total == 0 {
		return 0
	}
	target := q * total
	prevLE, prevN := 0.0, 0.0
	for _, b := range bs {
		if b.n >= target {
			if b.le > 1e300 { // +Inf
				return prevLE
			}
			lo := prevLE
			if prevLE == 0 {
				lo = b.le / 2
			}
			if b.n == prevN {
				return b.le
			}
			return lo + (b.le-lo)*(target-prevN)/(b.n-prevN)
		}
		prevLE, prevN = b.le, b.n
	}
	return prevLE
}

// wireFields parses "KEY a=1 b=2 ..." replies (STATS).
func wireFields(reply string) map[string]float64 {
	out := map[string]float64{}
	for _, f := range strings.Fields(reply) {
		if i := strings.IndexByte(f, '='); i > 0 {
			if v, err := strconv.ParseFloat(f[i+1:], 64); err == nil {
				out[f[:i]] = v
			}
		}
	}
	return out
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os/exec"
	"strings"
	"syscall"
	"time"
)

// child is the outcome of one child process as the benchmark saw it.
type child struct {
	wall   time.Duration
	cpu    time.Duration // user + sys
	rssKB  int64         // peak resident set
	stdout []byte
	err    error // start failure, or non-zero exit with its stderr
}

// runChild runs bin to completion, timing it from start to reaped exit.
// Children die with the benchmark (Pdeathsig), so an interrupted run leaves
// none behind.
func runChild(ctx context.Context, stdin io.Reader, bin string, args ...string) child {
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.Stdin = stdin
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	err := cmd.Run()
	c := child{wall: time.Since(start), stdout: stdout.Bytes()}
	if ps := cmd.ProcessState; ps != nil {
		c.cpu = ps.UserTime() + ps.SystemTime()
		if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
			c.rssKB = ru.Maxrss
		}
	}
	if err != nil {
		c.err = fmt.Errorf("%s %s: %w: %s", bin, strings.Join(args, " "), err, tail(stderr.String(), 400))
	}
	return c
}

func tail(s string, n int) string {
	s = strings.TrimSpace(s)
	if len(s) > n {
		s = "…" + s[len(s)-n:]
	}
	return s
}

// extractCLI runs one gfre -json extraction of d and checks the answer
// against the planted P(x): the run must exit 0, report the planted
// polynomial, and report it verified against the golden model.
func (e *env) extractCLI(ctx context.Context, d *design) (child, error) {
	args := []string{"-json"}
	if d.infer() {
		args = append(args, "-infer")
	}
	c := runChild(ctx, nil, e.bin("gfre"), append(args, d.File)...)
	if c.err != nil {
		return c, c.err
	}
	var rep struct {
		Polynomial string `json:"polynomial"`
		Verified   bool   `json:"verified"`
	}
	if err := json.Unmarshal(c.stdout, &rep); err != nil {
		return c, fmt.Errorf("%s: gfre output: %w", d.Name, err)
	}
	if rep.Polynomial != d.P || !rep.Verified {
		return c, fmt.Errorf("%s: gfre answered %s (verified %v), planted %s", d.Name, rep.Polynomial, rep.Verified, d.P)
	}
	return c, nil
}

// runPasses extracts every design once per pass, in a seeded order, one gfre
// child at a time, until the next pass would overrun the measuring time.
// A pass is reported as the sum over designs of each design's median over
// the passes, which filters a slow outlier run of any single design.
func (e *env) runPasses(ctx context.Context, pl *plan, r *runResult) error {
	wall := make([][]float64, len(pl.designs))
	cpu := make([][]float64, len(pl.designs))
	var latency []float64
	var peakKB int64
	start := time.Now()
	passes := 0
	for {
		ps := time.Now()
		for _, i := range pl.order.Perm(len(pl.designs)) {
			e.sampleSpeed(r)
			c, err := e.extractCLI(ctx, pl.designs[i])
			if ctx.Err() != nil {
				return ctx.Err()
			}
			r.check(err)
			wall[i] = append(wall[i], c.wall.Seconds())
			cpu[i] = append(cpu[i], c.cpu.Seconds())
			latency = append(latency, c.wall.Seconds())
			peakKB = max(peakKB, c.rssKB)
		}
		passes++
		if elapsed := time.Since(start); elapsed+time.Since(ps) > e.seconds {
			break
		}
	}
	e.sampleSpeed(r)
	passS, cpuS := 0.0, 0.0
	for i := range pl.designs {
		passS += median(wall[i])
		cpuS += median(cpu[i])
	}
	r.m.set("pass_s", passS, "Σ over %d designs of the median gfre wall of %d passes", len(pl.designs), passes)
	r.m.set("cpu_s", cpuS, "Σ over %d designs of the median gfre user+sys of %d passes", len(pl.designs), passes)
	r.m.set("peak_rss_mb", float64(peakKB)/1024, "max over %d gfre runs", len(latency))
	r.m.set("job_latency_s_p50", percentile(latency, 0.5), "per gfre run, n=%d", len(latency))
	r.m.set("job_latency_s_p90", percentile(latency, 0.9), "per gfre run, n=%d", len(latency))
	return nil
}

package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/galoisfield/gfre/internal/server"
)

// gfred is one daemon child process, started with its default flags apart
// from the listen address and the spool directory.
type gfred struct {
	cmd     *exec.Cmd
	base    string
	spool   string
	stderr  *addrWatcher
	exited  chan struct{}
	waitErr error
	stopped bool
}

// addrWatcher collects gfred's stderr and reports the address from its
// "serving on http://ADDR" line, so the daemon can pick a free port itself.
type addrWatcher struct {
	mu   sync.Mutex
	buf  []byte
	addr chan string
	sent bool
}

func (w *addrWatcher) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf = append(w.buf, p...)
	if !w.sent {
		const marker = "serving on http://"
		if i := bytes.Index(w.buf, []byte(marker)); i >= 0 {
			rest := w.buf[i+len(marker):]
			if j := bytes.IndexAny(rest, " \n"); j >= 0 {
				w.addr <- string(rest[:j])
				w.sent = true
			}
		}
	}
	if w.sent && len(w.buf) > 8<<10 {
		w.buf = append([]byte(nil), w.buf[len(w.buf)-4<<10:]...)
	}
	return len(p), nil
}

func (w *addrWatcher) tail() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return tail(string(w.buf), 400)
}

// startGfred starts a daemon on spool and returns once /readyz answers 200.
func (e *env) startGfred(ctx context.Context, spool string) (*gfred, error) {
	w := &addrWatcher{addr: make(chan string, 1)}
	cmd := exec.Command(e.bin("gfred"), "-addr", "127.0.0.1:0", "-spool", spool)
	cmd.Stderr = w
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting gfred: %w", err)
	}
	g := &gfred{cmd: cmd, spool: spool, stderr: w, exited: make(chan struct{})}
	go func() {
		g.waitErr = cmd.Wait()
		close(g.exited)
	}()
	deadline := time.NewTimer(30 * time.Second)
	defer deadline.Stop()
	select {
	case addr := <-w.addr:
		g.base = "http://" + addr
	case <-g.exited:
		return nil, fmt.Errorf("gfred exited before serving: %v: %s", g.waitErr, w.tail())
	case <-deadline.C:
		g.stop() //nolint:errcheck — reporting the start failure instead
		return nil, fmt.Errorf("gfred did not report its address: %s", w.tail())
	case <-ctx.Done():
		g.stop() //nolint:errcheck — reporting the cancellation instead
		return nil, ctx.Err()
	}
	hc := &http.Client{}
	defer hc.CloseIdleConnections()
	for {
		resp, err := hc.Get(g.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck — draining for reuse
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return g, nil
			}
		}
		select {
		case <-g.exited:
			return nil, fmt.Errorf("gfred exited before ready: %v: %s", g.waitErr, w.tail())
		case <-deadline.C:
			g.stop() //nolint:errcheck — reporting the readiness failure instead
			return nil, fmt.Errorf("gfred not ready: %v", err)
		case <-ctx.Done():
			g.stop() //nolint:errcheck — reporting the cancellation instead
			return nil, ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// stop drains the daemon with SIGTERM (it has no work left by then), kills
// it if the drain hangs, and returns its peak resident set in KiB. Safe to
// call twice.
func (g *gfred) stop() (rssKB int64, err error) {
	if !g.stopped {
		g.stopped = true
		g.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck — already exited is fine
		select {
		case <-g.exited:
		case <-time.After(30 * time.Second):
			g.cmd.Process.Kill() //nolint:errcheck — already exited is fine
			<-g.exited
		}
	} else {
		<-g.exited
	}
	if ru, ok := g.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rssKB = ru.Maxrss
	}
	// gfred answers /readyz before it installs its SIGTERM handler, so a
	// SIGTERM sent just after start-up (set-up stops each repetition's
	// daemon at once) can end it outright; that is still the stop asked for.
	var ee *exec.ExitError
	if errors.As(g.waitErr, &ee) {
		if ws, ok := ee.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM {
			return rssKB, nil
		}
	}
	if g.waitErr != nil {
		return rssKB, fmt.Errorf("gfred: %w: %s", g.waitErr, g.stderr.tail())
	}
	return rssKB, nil
}

// newClient allows the two connections the service load uses: one for
// submissions (and the final job listing), one for the event stream.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 2}}
}

// events follows GET /events and records when each job's terminal event
// arrived. If the daemon drops the stream (a slow reader is cut off), it
// reconnects with Last-Event-ID and the journal replays the gap.
type events struct {
	mu      sync.Mutex
	arrived map[string]time.Time
	cancel  context.CancelFunc
	done    chan struct{}
}

// watchEvents returns once the stream is subscribed, so no event of a job
// submitted afterwards can be missed.
func watchEvents(ctx context.Context, hc *http.Client, base string) (*events, error) {
	ctx, cancel := context.WithCancel(ctx)
	ev := &events{arrived: map[string]time.Time{}, cancel: cancel, done: make(chan struct{})}
	subscribed := make(chan error, 1)
	go func() {
		defer close(ev.done)
		lastID, first := "", true
		for ctx.Err() == nil {
			err := ev.follow(ctx, hc, base, &lastID, func() {
				if first {
					first = false
					subscribed <- nil
				}
			})
			if first {
				subscribed <- err
				return
			}
			select {
			case <-ctx.Done():
			case <-time.After(10 * time.Millisecond):
			}
		}
	}()
	if err := <-subscribed; err != nil {
		cancel()
		<-ev.done
		return nil, fmt.Errorf("subscribing to gfred events: %w", err)
	}
	return ev, nil
}

// follow reads one connection of the event stream until it ends.
func (ev *events) follow(ctx context.Context, hc *http.Client, base string, lastID *string, subscribed func()) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/events", nil)
	if err != nil {
		return err
	}
	req.Header.Set("Accept", "text/event-stream")
	if *lastID != "" {
		req.Header.Set("Last-Event-ID", *lastID)
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET /events: %s", resp.Status)
	}
	// The daemon subscribes before it sends the headers.
	subscribed()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 64<<20)
	snapshot := false
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			snapshot = false
		case line == "event: snapshot":
			snapshot = true
		case strings.HasPrefix(line, "id: "):
			*lastID = strings.TrimPrefix(line, "id: ")
		case strings.HasPrefix(line, "data: ") && !snapshot:
			var e struct {
				Ev  string `json:"ev"`
				Job string `json:"job"`
			}
			if json.Unmarshal([]byte(line[len("data: "):]), &e) == nil && e.Job != "" &&
				(e.Ev == "job_done" || e.Ev == "job_failed") {
				ev.mu.Lock()
				if _, seen := ev.arrived[e.Job]; !seen {
					ev.arrived[e.Job] = time.Now()
				}
				ev.mu.Unlock()
			}
		}
	}
	return sc.Err()
}

func (ev *events) arrival(id string) (time.Time, bool) {
	ev.mu.Lock()
	defer ev.mu.Unlock()
	t, ok := ev.arrived[id]
	return t, ok
}

// wait returns once every job in sent has a terminal event, or at timeout.
func (ev *events) wait(ctx context.Context, sent []sent, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		missing := 0
		for _, s := range sent {
			if _, ok := ev.arrival(s.id); s.err == nil && !ok {
				missing++
			}
		}
		if missing == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%d job(s) without a terminal event after %v", missing, timeout)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
}

func (ev *events) close() {
	ev.cancel()
	<-ev.done
}

// tracedServiceDesigns is how many of the burst's designs the service's
// traced run traces, alternately of each size; they are alike, so a sample
// keeps the run short.
const tracedServiceDesigns = 4

// serviceSpeedSamples is how often the speed kernel runs before and after
// the service phases; the kernel cannot run during them without competing
// with gfred.
const serviceSpeedSamples = 5

// runService runs the open loop and the burst, then stops the daemon to read
// its peak memory. The traced run also reports the daemon's layers and
// traces some of the burst's designs, timing layers as well.
func (e *env) runService(ctx context.Context, g *gfred, pl *plan, layers []string, r *runResult, parent int) error {
	for i := 0; i < serviceSpeedSamples; i++ {
		e.sampleSpeed(r)
	}
	s, err := e.serve(ctx, g, pl, r, parent)
	if err != nil {
		return err
	}
	for i := 0; i < serviceSpeedSamples; i++ {
		e.sampleSpeed(r)
	}
	rssKB, err := g.stop()
	if err != nil {
		return err
	}
	s.e2eMetrics(r)
	r.m.set("cpu_s", s.openCPU.Seconds(), "gfred user+sys over the open loop")
	r.m.set("peak_rss_mb", float64(rssKB)/1024, "gfred")
	if !e.trace {
		return nil
	}
	spool, err := dirSize(g.spool)
	if err != nil {
		return err
	}
	s.layerMetrics(r, spool)
	var traced []*design
	for _, x := range pl.burst[:min(len(pl.burst), tracedServiceDesigns)] {
		traced = append(traced, pl.designs[x.design])
	}
	return e.traceDesigns(ctx, traced, layers, r, parent)
}

// processCPU reads a running process's user+sys time from /proc/<pid>/stat,
// in clock ticks of 1/100 s (the USER_HZ Linux reports there).
func processCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The fields after the parenthesized command name start at field 3
	// (state); utime and stime are fields 14 and 15.
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, fmt.Errorf("/proc/%d/stat: unexpected format", pid)
	}
	fields := strings.Fields(string(data[i+1:]))
	if len(fields) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: unexpected format", pid)
	}
	var ticks int64
	for _, f := range fields[11:13] {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("/proc/%d/stat: %w", pid, err)
		}
		ticks += v
	}
	return time.Duration(ticks) * 10 * time.Millisecond, nil
}

// sent is one submission as the client made it.
type sent struct {
	id     string
	design *design
	due    time.Time     // when the generator was due to send it
	at     time.Time     // when the POST started
	rt     time.Duration // POST round trip
	err    error
}

// submit POSTs one job (dedup on, so resubmitted netlists share a result).
func submit(ctx context.Context, hc *http.Client, base string, d *design) (string, error) {
	body, err := json.Marshal(server.JobSpec{Netlist: string(d.eqn), Name: d.Name, Dedup: true})
	if err != nil {
		return "", err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/jobs", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	reply, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusAccepted {
		return "", fmt.Errorf("%s: POST /jobs: %s: %s", d.Name, resp.Status, tail(string(reply), 200))
	}
	var st server.JobState
	if err := json.Unmarshal(reply, &st); err != nil {
		return "", fmt.Errorf("%s: POST /jobs reply: %w", d.Name, err)
	}
	return st.ID, nil
}

// sendAll submits subs on schedule from t0, one request at a time, and never
// waits for a job to finish before sending the next: an open loop.
func sendAll(ctx context.Context, hc *http.Client, base string, designs []*design, subs []submission, t0 time.Time) []sent {
	out := make([]sent, 0, len(subs))
	for _, s := range subs {
		due := t0.Add(s.at)
		if wait := time.Until(due); wait > 0 {
			select {
			case <-ctx.Done():
				return out
			case <-time.After(wait):
			}
		}
		d := designs[s.design]
		start := time.Now()
		id, err := submit(ctx, hc, base, d)
		out = append(out, sent{id: id, design: d, due: due, at: start, rt: time.Since(start), err: err})
	}
	return out
}

// served is the record of one service phase: the open loop, then the burst.
type served struct {
	open, burst []sent
	openCPU     time.Duration // gfred's user+sys from the first open-loop send to its last terminal event
	ev          *events
	states      map[string]*server.JobState
}

func (s *served) all() []sent { return append(append([]sent(nil), s.open...), s.burst...) }

// jobTimeout bounds the wait for a phase's remaining terminal events, so
// that a stuck daemon fails the run well within three minutes.
const jobTimeout = time.Minute

// serve runs the open loop and then the burst against g, and checks every
// job's result against its planted P(x).
func (e *env) serve(ctx context.Context, g *gfred, pl *plan, r *runResult, parent int) (*served, error) {
	hc := newClient()
	defer hc.CloseIdleConnections()
	ev, err := watchEvents(ctx, hc, g.base)
	if err != nil {
		return nil, err
	}
	defer ev.close()
	s := &served{ev: ev}

	cpu0, err := processCPU(g.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	id := e.tr.start(parent, "open-loop", "")
	s.open = sendAll(ctx, hc, g.base, pl.designs, pl.open, time.Now())
	err = ev.wait(ctx, s.open, jobTimeout)
	e.tr.end(id)
	if err != nil && ctx.Err() != nil {
		return nil, err
	}
	cpu1, err := processCPU(g.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	s.openCPU = cpu1 - cpu0
	id = e.tr.start(parent, "burst", "")
	s.burst = sendAll(ctx, hc, g.base, pl.designs, pl.burst, time.Now())
	err = ev.wait(ctx, s.burst, jobTimeout)
	e.tr.end(id)
	if err != nil && ctx.Err() != nil {
		return nil, err
	}

	if s.states, err = listJobs(ctx, hc, g.base); err != nil {
		return nil, err
	}
	for _, x := range s.all() {
		r.check(s.verify(x))
	}
	return s, nil
}

// verify checks one job: accepted, a terminal event seen, done, and the
// planted polynomial verified against the golden model.
func (s *served) verify(x sent) error {
	if x.err != nil {
		return x.err
	}
	if _, ok := s.ev.arrival(x.id); !ok {
		return fmt.Errorf("%s (job %s): no terminal event", x.design.Name, x.id)
	}
	st := s.states[x.id]
	switch {
	case st == nil:
		return fmt.Errorf("%s (job %s): missing from GET /jobs", x.design.Name, x.id)
	case st.Status != server.StatusDone || st.Result == nil:
		return fmt.Errorf("%s (job %s): %s: %s", x.design.Name, x.id, st.Status, st.Error)
	case st.Result.Polynomial != x.design.P || !st.Result.Verified:
		return fmt.Errorf("%s (job %s): gfred answered %s (verified %v), planted %s",
			x.design.Name, x.id, st.Result.Polynomial, st.Result.Verified, x.design.P)
	}
	return nil
}

func listJobs(ctx context.Context, hc *http.Client, base string) (map[string]*server.JobState, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/jobs", nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /jobs: %s", resp.Status)
	}
	var list []*server.JobState
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		return nil, fmt.Errorf("GET /jobs: %w", err)
	}
	out := make(map[string]*server.JobState, len(list))
	for _, st := range list {
		out[st.ID] = st
	}
	return out, nil
}

// e2eMetrics reports what operators see: open-loop latency from each job's
// due time to its terminal event, and the burst as the service's pass.
func (s *served) e2eMetrics(r *runResult) {
	var latency, late []float64
	for _, x := range s.open {
		late = append(late, x.at.Sub(x.due).Seconds())
		if t, ok := s.ev.arrival(x.id); ok && x.err == nil {
			latency = append(latency, t.Sub(x.due).Seconds())
		}
	}
	r.m.set("job_latency_s_p50", percentile(latency, 0.5), "open loop at %.0f/s, n=%d", serviceRate, len(latency))
	r.m.set("job_latency_s_p90", percentile(latency, 0.9), "open loop at %.0f/s, n=%d", serviceRate, len(latency))
	r.m.set("generator.late_s_max", percentile(late, 1), "max send lateness over %d sends", len(late))
	var last time.Time
	for _, x := range s.burst {
		if t, ok := s.ev.arrival(x.id); ok && t.After(last) {
			last = t
		}
	}
	r.m.set("pass_s", last.Sub(s.burst[0].due).Seconds(), "burst of %d distinct jobs, first send to last terminal event", len(s.burst))
}

// layerMetrics reports the daemon's stages from the job states it keeps:
// submit round trip, queue wait, run time, and event delivery.
func (s *served) layerMetrics(r *runResult, spoolBytes int64) {
	var submitRT, queueWait, run, notify []float64
	deduped, extractions, extra := 0, 0, 0
	for _, x := range s.all() {
		if x.err != nil {
			continue
		}
		submitRT = append(submitRT, x.rt.Seconds())
		st := s.states[x.id]
		if st == nil {
			continue
		}
		if st.DedupOf != "" {
			deduped++
		}
		extractions += st.Attempts
		extra += max(0, st.Attempts-1)
		if st.StartedUnixNS > 0 && st.FinishedUnixNS > 0 {
			queueWait = append(queueWait, float64(st.StartedUnixNS-st.SubmittedUnixNS)/1e9)
			run = append(run, float64(st.FinishedUnixNS-st.StartedUnixNS)/1e9)
		}
		if t, ok := s.ev.arrival(x.id); ok && st.FinishedUnixNS > 0 {
			notify = append(notify, float64(t.UnixNano()-st.FinishedUnixNS)/1e9)
		}
	}
	r.m.set("server.submit_s_p50", median(submitRT), "POST /jobs round trip, n=%d", len(submitRT))
	r.m.set("server.queue_wait_s_p50", percentile(queueWait, 0.5), "started - submitted, n=%d", len(queueWait))
	r.m.set("server.queue_wait_s_p90", percentile(queueWait, 0.9), "started - submitted, n=%d", len(queueWait))
	r.m.set("server.run_s_p50", median(run), "finished - started, n=%d", len(run))
	r.m.set("server.notify_s_p50", median(notify), "event arrival - finished, n=%d", len(notify))
	r.m.set("server.deduped", float64(deduped), "jobs served by another job's extraction")
	r.m.set("server.extractions", float64(extractions), "extraction attempts")
	r.m.set("server.attempts_extra", float64(extra), "retried attempts")
	r.m.set("checkpoint.spool_bytes", float64(spoolBytes), "spool size after the run")
}

// dirSize sums the sizes of the regular files under dir.
func dirSize(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

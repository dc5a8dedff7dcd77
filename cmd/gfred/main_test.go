package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"github.com/galoisfield/gfre/internal/gen"
	"github.com/galoisfield/gfre/internal/polytab"
	"github.com/galoisfield/gfre/internal/server"
)

// gfredArgSep separates daemon arguments inside the helper env var (NUL is
// not legal in environment values).
const gfredArgSep = "\x1f"

// TestGfredHelper is not a test: re-executed as the gfred daemon by the
// lifecycle test below so it can be signalled and killed like a real process.
func TestGfredHelper(t *testing.T) {
	if os.Getenv("GFRED_HELPER") != "1" {
		t.Skip("helper process for the lifecycle test")
	}
	args := strings.Split(os.Getenv("GFRED_ARGS"), gfredArgSep)
	if err := run(args, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "gfred:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// startDaemon re-execs the test binary as gfred on an ephemeral port and
// returns the base URL parsed from its startup banner. extra appends
// daemon flags (e.g. -peers, -lease-ttl) to the default set.
func startDaemon(t *testing.T, spool string, extra ...string) (*exec.Cmd, string) {
	t.Helper()
	cmd, baseURL, _ := startDaemonLogged(t, spool, io.Discard, extra...)
	return cmd, baseURL
}

// startDaemonLogged is startDaemon copying the daemon's stderr after the
// banner to log; the returned channel closes once the daemon has exited
// and its stderr is fully copied.
func startDaemonLogged(t *testing.T, spool string, log io.Writer, extra ...string) (*exec.Cmd, string, <-chan struct{}) {
	t.Helper()
	args := append([]string{
		"-addr", "localhost:0", "-spool", spool, "-drain-grace", "10s",
	}, extra...)
	cmd := exec.Command(os.Args[0], "-test.run=TestGfredHelper$")
	cmd.Env = append(os.Environ(),
		"GFRED_HELPER=1",
		"GFRED_ARGS="+strings.Join(args, gfredArgSep),
	)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// The banner carries the resolved ephemeral address:
	// "gfred: serving on http://127.0.0.1:PORT (...)"
	sc := bufio.NewScanner(stderr)
	var baseURL string
	for sc.Scan() {
		line := sc.Text()
		if i := strings.Index(line, "http://"); i >= 0 {
			baseURL = strings.Fields(line[i:])[0]
			break
		}
	}
	if baseURL == "" {
		cmd.Process.Kill()
		cmd.Wait()
		t.Fatalf("no serving banner from gfred (scan err %v)", sc.Err())
	}
	// Keep draining stderr so the daemon never blocks on a full pipe.
	logged := make(chan struct{})
	go func() {
		defer close(logged)
		io.Copy(log, stderr) //nolint:errcheck
	}()
	return cmd, baseURL, logged
}

func postNetlist(t *testing.T, baseURL, text string) *server.JobState {
	t.Helper()
	resp, err := http.Post(baseURL+"/jobs", "text/plain", strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit: %s: %s", resp.Status, body)
	}
	st := &server.JobState{}
	if err := json.NewDecoder(resp.Body).Decode(st); err != nil {
		t.Fatal(err)
	}
	return st
}

func getJob(t *testing.T, baseURL, id string) *server.JobState {
	t.Helper()
	resp, err := http.Get(baseURL + "/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("get %s: %s", id, resp.Status)
	}
	st := &server.JobState{}
	if err := json.NewDecoder(resp.Body).Decode(st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestGfredLifecycle is the daemon smoke: start, submit over HTTP, extract,
// drain on SIGTERM with exit 0, and keep the finished job visible to the
// next daemon start via the spool.
func TestGfredLifecycle(t *testing.T) {
	p, err := polytab.Default(8)
	if err != nil {
		t.Fatal(err)
	}
	n, err := gen.Mastrovito(8, p)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := n.WriteEQN(&buf); err != nil {
		t.Fatal(err)
	}

	spool := filepath.Join(t.TempDir(), "spool")
	cmd, baseURL := startDaemon(t, spool)
	defer func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	}()

	resp, err := http.Get(baseURL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz: %s", resp.Status)
	}

	st := postNetlist(t, baseURL, buf.String())
	deadline := time.Now().Add(30 * time.Second)
	for !st.Status.Terminal() && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
		st = getJob(t, baseURL, st.ID)
	}
	if st.Status != server.StatusDone {
		t.Fatalf("job ended %s: %s", st.Status, st.Error)
	}
	if st.Result == nil || st.Result.Polynomial != p.String() {
		t.Fatalf("result: %+v", st.Result)
	}

	// SIGTERM drains and exits cleanly.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("gfred exited uncleanly after SIGTERM: %v", err)
	}

	// The spool outlives the daemon: a restarted instance still serves the
	// finished job's state and result.
	cmd2, baseURL2 := startDaemon(t, spool)
	defer func() {
		cmd2.Process.Signal(syscall.SIGTERM) //nolint:errcheck
		cmd2.Wait()                          //nolint:errcheck
	}()
	again := getJob(t, baseURL2, st.ID)
	if again.Status != server.StatusDone || again.Result == nil || again.Result.Polynomial != p.String() {
		t.Fatalf("restarted daemon lost the job: %+v", again)
	}
}

// TestGfredSIGTERMRightAfterReady: the first moment /readyz answers 200,
// SIGTERM must already be routed to the drain path — exit 0 with the drain
// banners — rather than killing the daemon with the default handler.
func TestGfredSIGTERMRightAfterReady(t *testing.T) {
	var log bytes.Buffer
	cmd, baseURL, logged := startDaemonLogged(t, filepath.Join(t.TempDir(), "spool"), &log)
	defer func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill() //nolint:errcheck
			cmd.Wait()         //nolint:errcheck
		}
	}()
	for deadline := time.Now().Add(10 * time.Second); ; {
		resp, err := http.Get(baseURL + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("readyz never answered 200 (last err %v)", err)
		}
		time.Sleep(time.Millisecond)
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	<-logged
	if err := cmd.Wait(); err != nil {
		t.Fatalf("gfred exited uncleanly after SIGTERM: %v\n%s", err, log.String())
	}
	if out := log.String(); !strings.Contains(out, "draining") || !strings.Contains(out, "drained") {
		t.Fatalf("SIGTERM did not take the drain path:\n%s", out)
	}
}

// postJSON submits a JSON body with extra headers and returns the response;
// the caller closes the body.
func postJSON(t *testing.T, url string, body any, hdr map[string]string) *http.Response {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// awaitDone polls a job until it completes with the expected polynomial.
func awaitDone(t *testing.T, baseURL, id, want string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	st := getJob(t, baseURL, id)
	for !st.Status.Terminal() && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
		st = getJob(t, baseURL, id)
	}
	if st.Status != server.StatusDone {
		t.Fatalf("job %s ended %s: %s", id, st.Status, st.Error)
	}
	if st.Result == nil || st.Result.Polynomial != want {
		t.Fatalf("job %s result: %+v", id, st.Result)
	}
}

// TestGfredTenantQuotasAndBatch exercises the multi-tenant surface of a live
// daemon started with a -tenants policy file: per-tenant quota rejection with
// Retry-After, tenant isolation (one tenant at quota does not slow another),
// API-key authentication, the /tenants admission report, and batch submission
// with forced content-hash dedup.
func TestGfredTenantQuotasAndBatch(t *testing.T) {
	p, err := polytab.Default(8)
	if err != nil {
		t.Fatal(err)
	}
	n, err := gen.Mastrovito(8, p)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := n.WriteEQN(&buf); err != nil {
		t.Fatal(err)
	}
	eqn := buf.String()

	policyPath := filepath.Join(t.TempDir(), "tenants.json")
	policy := `{"tenants": {"alice": {"max_active": 1}}, "api_keys": {"s3kr1t": "carol"}}`
	if err := os.WriteFile(policyPath, []byte(policy), 0o644); err != nil {
		t.Fatal(err)
	}

	spool := filepath.Join(t.TempDir(), "spool")
	// -retry-base 60s keeps a failed job parked (non-terminal, thus active)
	// for the whole test, so alice's quota state is deterministic.
	cmd, baseURL := startDaemon(t, spool,
		"-tenants", policyPath, "-retry-base", "60s", "-retry-cap", "60s")
	defer func() {
		cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck
		cmd.Wait()                          //nolint:errcheck
	}()

	// Pin alice's single active slot: a budget-starved job fails its first
	// attempt almost immediately and parks in a one-minute backoff, staying
	// non-terminal without occupying the worker.
	starved := map[string]any{"netlist": eqn, "budget_terms": 1, "max_attempts": 3}
	resp := postJSON(t, baseURL+"/jobs", starved, map[string]string{"X-Tenant": "alice"})
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("alice's first submit: %s", resp.Status)
	}

	// Her second submission must bounce off max_active=1 with a retry hint.
	resp = postJSON(t, baseURL+"/jobs", starved, map[string]string{"X-Tenant": "alice"})
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("alice over quota: got %s, want 429", resp.Status)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After header")
	}

	// Bob has no quota entry and is not affected by alice's saturation.
	resp = postJSON(t, baseURL+"/jobs", map[string]any{"netlist": eqn},
		map[string]string{"X-Tenant": "bob"})
	if resp.StatusCode != http.StatusAccepted {
		resp.Body.Close()
		t.Fatalf("bob's submit: %s", resp.Status)
	}
	bobSt := &server.JobState{}
	if err := json.NewDecoder(resp.Body).Decode(bobSt); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if bobSt.Tenant != "bob" {
		t.Fatalf("bob's job attributed to %q", bobSt.Tenant)
	}
	awaitDone(t, baseURL, bobSt.ID, p.String())

	// An API key resolves to its tenant; an unknown key is refused outright.
	resp = postJSON(t, baseURL+"/jobs", map[string]any{"netlist": eqn},
		map[string]string{"Authorization": "Bearer s3kr1t"})
	if resp.StatusCode != http.StatusAccepted {
		resp.Body.Close()
		t.Fatalf("carol's keyed submit: %s", resp.Status)
	}
	carolSt := &server.JobState{}
	if err := json.NewDecoder(resp.Body).Decode(carolSt); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if carolSt.Tenant != "carol" {
		t.Fatalf("API key resolved to tenant %q, want carol", carolSt.Tenant)
	}
	resp = postJSON(t, baseURL+"/jobs", map[string]any{"netlist": eqn},
		map[string]string{"Authorization": "Bearer wrong"})
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("unknown API key: got %s, want 401", resp.Status)
	}

	// The admission report shows alice saturated and rejected.
	resp, err = http.Get(baseURL + "/tenants")
	if err != nil {
		t.Fatal(err)
	}
	var tenants []server.TenantStatus
	if err := json.NewDecoder(resp.Body).Decode(&tenants); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	byName := map[string]server.TenantStatus{}
	for _, ts := range tenants {
		byName[ts.Tenant] = ts
	}
	if a := byName["alice"]; a.Active != 1 || a.Rejected < 1 {
		t.Fatalf("alice's admission state: %+v", a)
	}
	if b := byName["bob"]; b.Admitted < 1 {
		t.Fatalf("bob's admission state: %+v", b)
	}

	// A batch of identical specs dedups onto one leader: the followers carry
	// DedupOf and every job still reports the planted polynomial.
	batch := []map[string]any{
		{"netlist": eqn, "tolerate": 1},
		{"netlist": eqn, "tolerate": 1},
		{"netlist": eqn, "tolerate": 1},
	}
	resp = postJSON(t, baseURL+"/jobs/batch", batch, map[string]string{"X-Tenant": "bob"})
	if resp.StatusCode != http.StatusAccepted {
		resp.Body.Close()
		t.Fatalf("batch submit: %s", resp.Status)
	}
	var reply struct {
		Accepted int `json:"accepted"`
		Rejected int `json:"rejected"`
		Items    []struct {
			Job *server.JobState `json:"job"`
		} `json:"items"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if reply.Accepted != 3 || reply.Rejected != 0 {
		t.Fatalf("batch reply: accepted %d rejected %d", reply.Accepted, reply.Rejected)
	}
	followers := 0
	for _, item := range reply.Items {
		if item.Job == nil {
			t.Fatalf("accepted batch item without job state: %+v", reply)
		}
		if item.Job.DedupOf != "" {
			followers++
		}
	}
	if followers != 2 {
		t.Fatalf("batch of 3 identical specs produced %d followers, want 2", followers)
	}
	for _, item := range reply.Items {
		awaitDone(t, baseURL, item.Job.ID, p.String())
	}
}

// Command gfred is the gfre extraction service: an HTTP daemon that accepts
// multiplier netlists into a bounded durable job queue, reverse engineers
// their irreducible polynomials under the resource governor, and survives
// both its own restarts and the jobs' crashes.
//
//	gfred -addr :8080 -spool /var/lib/gfred
//
// API:
//
//	POST /jobs             submit (JSON job spec, or raw netlist with ?format=)
//	POST /jobs/batch       submit a JSON array of job specs with content-hash
//	                       dedup forced (identical items share one extraction)
//	GET  /jobs             list jobs
//	GET  /jobs/{id}        job status and result
//	GET  /jobs/{id}/events live job telemetry as SSE (resumable via Last-Event-ID)
//	GET  /events           the whole telemetry journal as SSE
//	GET  /tenants          per-tenant admission state (active, rejected, ...)
//	GET  /debug/live       browser live view (queue, per-job progress, cone heatmap)
//	GET  /healthz          liveness
//	GET  /readyz           readiness as JSON (503 while draining or at the
//	                       load-shed controller's reject-everything stage)
//	GET  /metrics          metrics: JSON by default, Prometheus text format
//	                       with Accept: text/plain or ?format=prometheus
//	POST /shards/lease       lease a batch of cone IDs to a peer (204 = no work)
//	POST /shards/{id}/renew  heartbeat a lease (410 = fenced)
//	POST /shards/{id}/result submit packed cone results (410 = fenced)
//
// Submissions are attributed to tenants (X-Tenant header, or an API key via
// "Authorization: Bearer" resolved through the -tenants policy file); each
// tenant gets token-bucket admission, resource quotas and a weighted-fair
// share of the dispatcher. Over-quota submissions get 429 with a per-tenant
// Retry-After; overload engages staged shedding (lowest priorities first,
// then coordinator-only, then readyz flips) instead of global collapse.
//
// Jobs submitted with "shard" > 0 run under the lease-based sharded
// extractor: their cones are leased to local workers and to any gfred
// peers started with -peers pointing at this node. Worker death, network
// partitions and duplicated submissions are absorbed by lease expiry and
// the epoch fence; see package shard.
//
// Every accepted job is persisted to the spool before the 202 response, so
// a daemon crash loses nothing: on the next start the spool is replayed,
// and jobs that were mid-extraction resume from their checkpoints instead
// of starting over. SIGTERM drains gracefully — intake stops, running jobs
// get a grace period, then are cancelled cooperatively with their
// checkpoints synced. When the queue is full, submissions are shed with
// 429 and a Retry-After hint.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/galoisfield/gfre/internal/obs"
	"github.com/galoisfield/gfre/internal/server"
	"github.com/galoisfield/gfre/internal/shard"
)

func main() {
	if err := run(os.Args[1:], os.Stderr); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "gfred:", err)
		os.Exit(1)
	}
}

func run(args []string, stderr io.Writer) (retErr error) {
	fs := flag.NewFlagSet("gfred", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr        = fs.String("addr", "localhost:8080", "HTTP listen address")
		spool       = fs.String("spool", "gfred-spool", "durable job spool directory (jobs, states, checkpoints)")
		capacity    = fs.Int("capacity", 64, "queue capacity (queued + running); beyond it submissions get 429")
		workers     = fs.Int("workers", 1, "concurrent extractions (each is internally parallel)")
		maxAttempts = fs.Int("max-attempts", 3, "default attempts per job before it fails permanently")
		retryBase   = fs.Duration("retry-base", time.Second, "base retry backoff (doubles per attempt, with jitter)")
		retryCap    = fs.Duration("retry-cap", 2*time.Minute, "retry backoff ceiling")
		drainGrace  = fs.Duration("drain-grace", 30*time.Second, "how long SIGTERM lets in-flight jobs finish before cancelling them")
		metrics     = fs.String("metrics", "", "stream telemetry events to this NDJSON file")
		journalCap  = fs.Int("journal", obs.DefaultJournalCapacity, "event journal capacity backing SSE replay (/events, /jobs/{id}/events)")
		peers       = fs.String("peers", "", "comma-separated base URLs of other gfred nodes to execute cone leases for (distributed extraction)")
		peerWorkers = fs.Int("peer-workers", 1, "concurrent lease-executing goroutines per peer URL")
		leaseTTL    = fs.Duration("lease-ttl", 0, "shard lease heartbeat deadline (0 = default); leases not renewed within it re-queue")
		tenants     = fs.String("tenants", "", "tenant admission policy file (JSON TenantPolicy: quotas, weights, API keys); empty = one unlimited default tenant")
		aging       = fs.Duration("aging", 0, "dispatcher starvation-aging interval: a queued job gains one priority class per interval waited (0 = default 30s)")
		shed        = fs.String("shed", "", "load-shed stage thresholds as three load fractions, e.g. 0.75,0.90,0.97 (empty = defaults)")
		shedMem     = fs.Int64("shed-mem", 0, "heap in-use bytes forcing at least shed stage 2 (coordinator-only); 0 = off")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}

	var sinks []obs.Sink
	if *metrics != "" {
		mf, err := os.Create(*metrics)
		if err != nil {
			return err
		}
		defer mf.Close()
		sinks = append(sinks, obs.NewNDJSONSink(mf))
	}
	rec := obs.NewRecorder(sinks...)
	// The deferred close drains buffered telemetry on EVERY exit path —
	// the same flush contract gfre's CLI honors.
	defer func() {
		if cerr := rec.Close(); cerr != nil && retErr == nil {
			retErr = cerr
		}
	}()

	policy, err := loadTenantPolicy(*tenants)
	if err != nil {
		return err
	}
	shedCfg, err := parseShed(*shed)
	if err != nil {
		return err
	}
	shedCfg.MemHighBytes = uint64(*shedMem)

	// The hub is always on: it costs nothing until a job asks for sharding,
	// and peers can join at any time. The recorder lets its per-peer circuit
	// breakers surface as metrics and events.
	hub := shard.NewHub()
	hub.SetRecorder(rec)

	q, err := server.NewQueue(server.Config{
		Dir:         *spool,
		Capacity:    *capacity,
		Workers:     *workers,
		MaxAttempts: *maxAttempts,
		RetryBase:   *retryBase,
		RetryCap:    *retryCap,
		Recorder:    rec,
		// NewQueue attaches the journal to the recorder itself; it must not
		// be attached here too or every event would be delivered twice.
		Journal:       obs.NewJournal(*journalCap),
		Hub:           hub,
		ShardLeaseTTL: *leaseTTL,
		Policy:        policy,
		AgingStep:     *aging,
		Shed:          shedCfg,
	})
	if err != nil {
		return err
	}

	// Peer mode: execute cone leases for other gfred nodes alongside (or
	// instead of) serving local jobs. Peer loops poll until shutdown; a
	// coordinator node that dies mid-run simply stops granting leases, and
	// its own expiry machinery re-queues whatever this peer held.
	peerCtx, stopPeers := context.WithCancel(context.Background())
	defer stopPeers()
	for _, base := range strings.Split(*peers, ",") {
		base = strings.TrimSpace(base)
		if base == "" {
			continue
		}
		fmt.Fprintf(stderr, "gfred: executing cone leases for peer %s (%d workers)\n", base, *peerWorkers)
		go shard.RunPeer(peerCtx, base, shard.PeerConfig{ //nolint:errcheck — exits with peerCtx
			ID: "peer-" + *addr, Workers: *peerWorkers, Recorder: rec,
		})
	}

	// Install the drain handler before the listener exists: once /readyz can
	// answer 200, a SIGTERM must take the drain path, never the default
	// kill.
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigCh)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: server.NewServer(q, rec)}
	fmt.Fprintf(stderr, "gfred: serving on http://%s (spool %s, capacity %d, %d workers)\n",
		ln.Addr(), *spool, *capacity, *workers)

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case sig := <-sigCh:
		fmt.Fprintf(stderr, "gfred: %v — draining (grace %v)\n", sig, *drainGrace)
		// Readiness flips to 503 the moment draining starts; finish or
		// checkpoint the work, then stop the listener.
		q.Drain(*drainGrace)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "gfred: drained, %d job(s) left for the next start\n", q.Active())
		return nil
	case err := <-serveErr:
		return err
	}
}

// loadTenantPolicy reads the -tenants JSON policy file ("" = zero policy:
// one unlimited default tenant).
func loadTenantPolicy(path string) (server.TenantPolicy, error) {
	var p server.TenantPolicy
	if path == "" {
		return p, nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return p, err
	}
	if err := json.Unmarshal(data, &p); err != nil {
		return p, fmt.Errorf("tenant policy %s: %w", path, err)
	}
	return p, nil
}

// parseShed parses "-shed a,b,c" into the three stage-entry load fractions.
func parseShed(s string) (server.ShedConfig, error) {
	var cfg server.ShedConfig
	if s == "" {
		return cfg, nil
	}
	parts := strings.Split(s, ",")
	if len(parts) != 3 {
		return cfg, fmt.Errorf("-shed wants three comma-separated load fractions, got %q", s)
	}
	for i, part := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil || v <= 0 || v > 1 {
			return cfg, fmt.Errorf("-shed threshold %q: want a load fraction in (0,1]", part)
		}
		cfg.Enter[i] = v
	}
	return cfg, nil
}

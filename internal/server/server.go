package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"github.com/galoisfield/gfre/internal/obs"
	"github.com/galoisfield/gfre/internal/shard"
)

// maxUploadBytes bounds a job submission body. The largest generated
// benchmarks (GF(2^571) Montgomery EQN) are tens of megabytes; anything
// past this is abuse, not a netlist.
const maxUploadBytes = 256 << 20

// Server is the gfred HTTP API over a Queue.
//
// Submissions are attributed to a tenant: the X-Tenant header names one
// directly, or "Authorization: Bearer <key>" resolves through the queue's
// API-key table; absent both, jobs run as the default tenant. Per-tenant
// token-bucket and resource quotas answer 429 with a Retry-After derived
// from that tenant's own refill state.
//
//	POST /jobs             submit a job (JSON JobSpec, or a raw netlist body)
//	POST /jobs/batch       submit a JSON array of JobSpecs as one batch with
//	                       content-hash dedup forced: identical items share a
//	                       single extraction, per-item outcomes in the reply
//	GET  /jobs             list known jobs, newest first
//	GET  /jobs/{id}        one job's state (includes the result when done)
//	GET  /jobs/{id}/events one job's telemetry as SSE (ends at the terminal event)
//	GET  /events           the whole telemetry journal as SSE
//	GET  /tenants          per-tenant admission state (active, rejected, ...)
//	GET  /debug/live       self-contained live dashboard over /events
//	GET  /healthz          liveness: 200 while the process serves
//	GET  /readyz           readiness as JSON: 200 while accepting jobs, 503
//	                       with the reason (draining, shed stage) when not
//	GET  /metrics          metrics registry: JSON by default, Prometheus text
//	                       format 0.0.4 under Accept: text/plain (or
//	                       ?format=prometheus)
//	POST /shards/lease       lease a batch of cone IDs (204 = no work)
//	POST /shards/{id}/renew  heartbeat a lease (410 = fenced)
//	POST /shards/{id}/result submit packed cone results (410 = fenced)
type Server struct {
	queue *Queue
	rec   *obs.Recorder
	mux   *http.ServeMux
	// heartbeat overrides the SSE keep-alive period (0 = defaultHeartbeat);
	// tests shrink it to observe heartbeats without waiting 15s.
	heartbeat time.Duration
}

// NewServer wires the API around a queue. rec backs GET /metrics; use the
// same recorder the queue was configured with.
func NewServer(q *Queue, rec *obs.Recorder) *Server {
	s := &Server{queue: q, rec: rec, mux: http.NewServeMux()}
	s.mux.HandleFunc("POST /jobs", s.handleSubmit)
	s.mux.HandleFunc("POST /jobs/batch", s.handleBatch)
	s.mux.HandleFunc("GET /jobs", s.handleList)
	s.mux.HandleFunc("GET /tenants", s.handleTenants)
	s.mux.HandleFunc("GET /jobs/{id}", s.handleGet)
	s.mux.HandleFunc("GET /jobs/{id}/events", s.handleJobEvents)
	s.mux.HandleFunc("GET /events", s.handleEvents)
	s.mux.HandleFunc("GET /debug/live", s.handleLive)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("POST /shards/lease", s.handleShardLease)
	s.mux.HandleFunc("POST /shards/{id}/renew", s.handleShardRenew)
	s.mux.HandleFunc("POST /shards/{id}/result", s.handleShardResult)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// tenantFromRequest resolves the submission's tenant: X-Tenant header first,
// then an API key presented as "Authorization: Bearer <key>". An unknown key
// is an authentication failure (the client asked for an identity the policy
// does not grant), not a fall-through to the default tenant.
func (s *Server) tenantFromRequest(r *http.Request) (string, error) {
	if t := r.Header.Get("X-Tenant"); t != "" {
		return t, nil
	}
	if auth := r.Header.Get("Authorization"); auth != "" {
		key, ok := strings.CutPrefix(auth, "Bearer ")
		if !ok {
			return "", fmt.Errorf("unsupported Authorization scheme")
		}
		tenant, ok := s.queue.ResolveAPIKey(strings.TrimSpace(key))
		if !ok {
			return "", fmt.Errorf("unknown API key")
		}
		return tenant, nil
	}
	return "", nil // queue defaults to DefaultTenant
}

// handleSubmit accepts a job: a JSON JobSpec body (Content-Type
// application/json) or a raw netlist body (any other type; format from the
// ?format= query parameter, extraction knobs at their defaults).
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	tenant, err := s.tenantFromRequest(r)
	if err != nil {
		httpError(w, http.StatusUnauthorized, "%v", err)
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, maxUploadBytes+1))
	if err != nil {
		httpError(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	if len(body) > maxUploadBytes {
		httpError(w, http.StatusRequestEntityTooLarge, "body exceeds %d bytes", maxUploadBytes)
		return
	}
	spec := &JobSpec{}
	if ct := r.Header.Get("Content-Type"); strings.HasPrefix(ct, "application/json") {
		if err := json.Unmarshal(body, spec); err != nil {
			httpError(w, http.StatusBadRequest, "job spec: %v", err)
			return
		}
	} else {
		spec.Netlist = string(body)
		spec.Format = r.URL.Query().Get("format")
	}
	if tenant != "" {
		spec.Tenant = tenant
	}
	st, err := s.queue.Submit(spec)
	if err != nil {
		s.writeSubmitError(w, err)
		return
	}
	w.Header().Set("Location", "/jobs/"+st.ID)
	writeJSON(w, http.StatusAccepted, st)
}

// writeSubmitError maps a Submit failure onto the HTTP response.
func (s *Server) writeSubmitError(w http.ResponseWriter, err error) {
	code, retryAfter := submitErrorCode(err, s.queue)
	if retryAfter != "" {
		w.Header().Set("Retry-After", retryAfter)
	}
	var lintRej *LintRejection
	if errors.As(err, &lintRej) {
		// Structurally defective netlist: the findings body tells the
		// client what to fix (cycle witness, multi-driven signals, ...).
		writeJSON(w, code, struct {
			Error    string `json:"error"`
			Findings any    `json:"findings"`
		}{Error: lintRej.Error(), Findings: lintRej.Report.Findings})
		return
	}
	httpError(w, code, "%v", err)
}

// submitErrorCode classifies a Submit failure into a status code plus an
// optional Retry-After value. Quota rejections carry the tenant's own retry
// hint (token refill time); queue-full and overload rejections derive one
// from the global queue state.
func submitErrorCode(err error, q *Queue) (code int, retryAfter string) {
	var (
		lintRej  *LintRejection
		quotaErr *QuotaError
	)
	switch {
	case errors.As(err, &lintRej):
		return http.StatusUnprocessableEntity, ""
	case errors.As(err, &quotaErr):
		return http.StatusTooManyRequests, retryAfterSeconds(quotaErr.RetryAfter)
	case errors.Is(err, ErrQuotaExceeded):
		return http.StatusTooManyRequests, retryAfterSeconds(time.Second)
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrOverloaded):
		// Shed load, with an honest hint derived from the queue's actual
		// state: seconds until the earliest parked backoff expires when
		// everything is backing off, or the estimated per-worker drain when
		// jobs are actively running.
		return http.StatusTooManyRequests, retryAfterSeconds(q.RetryAfterHint())
	case errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable, ""
	case errors.Is(err, ErrBadSpec):
		return http.StatusBadRequest, ""
	default:
		return http.StatusInternalServerError, ""
	}
}

// maxBatchItems bounds one POST /jobs/batch request.
const maxBatchItems = 256

// batchItemReply is one submission outcome in a batch response.
type batchItemReply struct {
	Job   *JobState `json:"job,omitempty"`
	Error string    `json:"error,omitempty"`
	Code  int       `json:"code,omitempty"`
}

// batchReply is the POST /jobs/batch response body.
type batchReply struct {
	Accepted int              `json:"accepted"`
	Rejected int              `json:"rejected"`
	Items    []batchItemReply `json:"items"`
}

// handleBatch accepts a JSON array of JobSpecs as one batch. Dedup is forced:
// N identical items admit a single extraction whose result fans out to every
// accepted job. Outcomes are per item — the reply is 202 if anything was
// accepted, 429 if everything was rejected for load or quota reasons, 400
// otherwise.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	tenant, err := s.tenantFromRequest(r)
	if err != nil {
		httpError(w, http.StatusUnauthorized, "%v", err)
		return
	}
	var specs []*JobSpec
	if err := readJSON(r, maxUploadBytes, &specs); err != nil {
		httpError(w, http.StatusBadRequest, "batch body: %v", err)
		return
	}
	if len(specs) == 0 {
		httpError(w, http.StatusBadRequest, "empty batch")
		return
	}
	if len(specs) > maxBatchItems {
		httpError(w, http.StatusRequestEntityTooLarge, "batch exceeds %d items", maxBatchItems)
		return
	}
	for _, spec := range specs {
		if spec != nil && tenant != "" {
			spec.Tenant = tenant
		}
	}
	reply := batchReply{Items: make([]batchItemReply, len(specs))}
	results := s.queue.SubmitBatch(specs)
	allThrottled := true
	for i, res := range results {
		if res.Err != nil {
			code, _ := submitErrorCode(res.Err, s.queue)
			reply.Items[i] = batchItemReply{Error: res.Err.Error(), Code: code}
			reply.Rejected++
			if code != http.StatusTooManyRequests {
				allThrottled = false
			}
			continue
		}
		reply.Items[i] = batchItemReply{Job: res.State}
		reply.Accepted++
	}
	switch {
	case reply.Accepted > 0:
		writeJSON(w, http.StatusAccepted, reply)
	case allThrottled:
		w.Header().Set("Retry-After", retryAfterSeconds(s.queue.RetryAfterHint()))
		writeJSON(w, http.StatusTooManyRequests, reply)
	default:
		writeJSON(w, http.StatusBadRequest, reply)
	}
}

// handleTenants reports per-tenant admission state.
func (s *Server) handleTenants(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.queue.Tenants())
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.queue.List())
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	st, err := s.queue.Get(r.PathValue("id"))
	if err != nil {
		httpError(w, http.StatusNotFound, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.WriteHeader(http.StatusOK)
	io.WriteString(w, "ok\n") //nolint:errcheck — best-effort health body
}

// handleReadyz reports readiness as JSON with the queue pressure behind the
// verdict: 503 while draining or while the load-shed controller sits at its
// reject-everything stage, so load balancers stop routing to a node that
// would only answer 429.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	rs := s.queue.ReadyState()
	code := http.StatusOK
	if !rs.Ready {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, rs)
}

// handleMetrics content-negotiates the registry snapshot: Prometheus text
// format 0.0.4 when the client asks for text/plain or openmetrics (that is
// what scrapers send), or with ?format=prometheus; indented JSON otherwise,
// which keeps curl and the existing tooling unchanged.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	accept := r.Header.Get("Accept")
	if r.URL.Query().Get("format") == "prometheus" ||
		strings.Contains(accept, "text/plain") ||
		strings.Contains(accept, "openmetrics") {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		obs.WritePrometheus(w, s.rec.Snapshot(), "gfre") //nolint:errcheck — client went away
		return
	}
	writeJSON(w, http.StatusOK, s.rec.Snapshot())
}

// retryAfterSeconds renders a duration as the integral seconds form of the
// Retry-After header, rounding up so the client never retries early.
func retryAfterSeconds(d time.Duration) string {
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}

// handleShardLease hands a batch of cone leases to a remote peer. 204 means
// no leasable work right now (retry shortly); 404 means this daemon runs
// without a hub.
func (s *Server) handleShardLease(w http.ResponseWriter, r *http.Request) {
	hub := s.queue.Hub()
	if hub == nil {
		httpError(w, http.StatusNotFound, "shard hub not enabled")
		return
	}
	var req shard.LeaseRequest
	if err := readJSON(r, 1<<20, &req); err != nil {
		httpError(w, http.StatusBadRequest, "lease request: %v", err)
		return
	}
	g, err := hub.Lease(req.Worker, req.Max, req.Have)
	if err != nil {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	writeJSON(w, http.StatusOK, g)
}

// handleShardRenew heartbeats a lease; 410 Gone is the epoch fence.
func (s *Server) handleShardRenew(w http.ResponseWriter, r *http.Request) {
	hub := s.queue.Hub()
	if hub == nil {
		httpError(w, http.StatusNotFound, "shard hub not enabled")
		return
	}
	var req shard.RenewRequest
	if err := readJSON(r, 1<<20, &req); err != nil {
		httpError(w, http.StatusBadRequest, "renew request: %v", err)
		return
	}
	deadline, err := hub.Renew(r.PathValue("id"), req.Epoch)
	if err != nil {
		httpError(w, http.StatusGone, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, shard.RenewReply{DeadlineUnixNS: deadline.UnixNano()})
}

// handleShardResult accepts a peer's result envelope. The per-cone verdicts
// ride back in the SubmitReply; a fully fenced lease gets 410 so the peer
// abandons it.
func (s *Server) handleShardResult(w http.ResponseWriter, r *http.Request) {
	hub := s.queue.Hub()
	if hub == nil {
		httpError(w, http.StatusNotFound, "shard hub not enabled")
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, maxUploadBytes+1))
	if err != nil {
		httpError(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	epoch, results, err := shard.DecodeResultEnvelope(body)
	if err != nil {
		httpError(w, http.StatusBadRequest, "result envelope: %v", err)
		return
	}
	reply, err := hub.Submit(r.PathValue("id"), epoch, results)
	switch {
	case errors.Is(err, shard.ErrLeaseExpired):
		httpError(w, http.StatusGone, "%v", err)
		return
	case err != nil:
		// The pool rejected the envelope as a whole (a bit out of range):
		// the lease is still live, so this is not the fence.
		httpError(w, http.StatusBadRequest, "result envelope: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, reply)
}

// readJSON decodes a bounded JSON request body into v.
func readJSON(r *http.Request, limit int64, v any) error {
	body, err := io.ReadAll(io.LimitReader(r.Body, limit))
	if err != nil {
		return err
	}
	return json.Unmarshal(body, v)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck — client went away, nothing to do
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	http.Error(w, fmt.Sprintf(format, args...), code)
}

package shard

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/galoisfield/gfre/internal/checkpoint"
	"github.com/galoisfield/gfre/internal/extract"
	"github.com/galoisfield/gfre/internal/gen"
	"github.com/galoisfield/gfre/internal/netlist"
	"github.com/galoisfield/gfre/internal/polytab"
	"github.com/galoisfield/gfre/internal/rewrite"
)

// newShardMux mirrors the gfred /shards endpoints over a Hub, so the client
// tests exercise the exact wire protocol without importing internal/server
// (which imports this package).
func newShardMux(hub *Hub) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /shards/lease", func(w http.ResponseWriter, r *http.Request) {
		var req LeaseRequest
		if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		g, err := hub.Lease(req.Worker, req.Max, req.Have)
		if err != nil {
			w.WriteHeader(http.StatusNoContent)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(g)
	})
	mux.HandleFunc("POST /shards/{id}/renew", func(w http.ResponseWriter, r *http.Request) {
		var req RenewRequest
		if err := json.NewDecoder(io.LimitReader(r.Body, 4096)).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		deadline, err := hub.Renew(r.PathValue("id"), req.Epoch)
		if err != nil {
			w.WriteHeader(http.StatusGone)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(RenewReply{DeadlineUnixNS: deadline.UnixNano()})
	})
	mux.HandleFunc("POST /shards/{id}/result", func(w http.ResponseWriter, r *http.Request) {
		data, err := io.ReadAll(io.LimitReader(r.Body, maxEnvelopeBytes))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		epoch, results, err := DecodeResultEnvelope(data)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		reply, err := hub.Submit(r.PathValue("id"), epoch, results)
		if err != nil {
			w.WriteHeader(http.StatusGone)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(reply)
	})
	return mux
}

func testMultiplier(t *testing.T, m int) (*netlist.Netlist, string) {
	t.Helper()
	p, err := polytab.Default(m)
	if err != nil {
		t.Fatal(err)
	}
	n, err := gen.Mastrovito(m, p)
	if err != nil {
		t.Fatal(err)
	}
	hash, err := checkpoint.HashNetlist(n)
	if err != nil {
		t.Fatal(err)
	}
	return n, hash
}

func TestClientRoundTripOverHTTP(t *testing.T) {
	n, hash := testMultiplier(t, 4)
	pool := newTestPool(t, 4, nil, func(c *Config) { c.Hash = hash })
	hub := NewHub()
	if err := hub.Register("job", pool, n); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(newShardMux(hub))
	defer srv.Close()

	cl := &Client{Base: srv.URL, RetryBase: time.Millisecond}
	g, err := cl.Lease("remote-0", 2)
	if err != nil {
		t.Fatal(err)
	}
	if g.Hash != hash || len(g.Cones) != 2 {
		t.Fatalf("grant %+v", g)
	}
	if g.Netlist == "" {
		t.Fatal("cold worker's grant must ship the netlist over the wire")
	}
	eqn, ok := cl.TakeNetlist(hash)
	if !ok {
		t.Fatal("TakeNetlist must surface the shipped body")
	}
	parsed, err := netlist.ReadEQN(strings.NewReader(eqn), netlist.EQNName(eqn, "wire"))
	if err != nil {
		t.Fatalf("shipped netlist does not parse: %v", err)
	}
	if h, err := checkpoint.HashNetlist(parsed); err != nil || h != hash {
		t.Fatalf("shipped netlist hash mismatch: %v %v", h, err)
	}

	if _, err := cl.Renew(g.Lease, g.Epoch); err != nil {
		t.Fatalf("renew over HTTP: %v", err)
	}
	// A worker advertising the hash gets a body-free grant.
	cl2 := &Client{Base: srv.URL, Have: func() []string { return []string{hash} }}
	g2, err := cl2.Lease("remote-1", 2)
	if err != nil {
		t.Fatal(err)
	}
	if g2.Netlist != "" {
		t.Fatal("grant must omit the netlist for an advertising worker")
	}

	// Drive both leases to completion through the real worker loop.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := ExecuteLease(ctx, cl, parsed, g, rewrite.Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := ExecuteLease(ctx, cl2, parsed, g2, rewrite.Options{}); err != nil {
		t.Fatal(err)
	}
	if !pool.Finished() {
		t.Fatalf("pool not finished: %+v", pool.Stats())
	}
	if st := pool.Stats(); st.Accepted != 4 || st.DoubleAccepts != 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestClientRetriesTransientServerFaults(t *testing.T) {
	n, hash := testMultiplier(t, 4)
	pool := newTestPool(t, 4, nil, func(c *Config) { c.Hash = hash })
	hub := NewHub()
	if err := hub.Register("job", pool, n); err != nil {
		t.Fatal(err)
	}
	inner := newShardMux(hub)
	var faults atomic.Int32
	faults.Store(3)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// The first submissions hit a flapping server; the client must
		// absorb the 503 burst and land the (idempotent) envelope.
		if strings.HasSuffix(r.URL.Path, "/result") && faults.Add(-1) >= 0 {
			http.Error(w, "flapping", http.StatusServiceUnavailable)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()

	cl := &Client{Base: srv.URL, Retries: 6, RetryBase: time.Millisecond}
	g, err := cl.Lease("w", 0)
	if err != nil {
		t.Fatal(err)
	}
	var brs []rewrite.BitResult
	for _, bit := range g.Cones {
		brs = append(brs, okResult(bit))
	}
	reply, err := cl.Submit(g.Lease, g.Epoch, brs)
	if err != nil {
		t.Fatalf("submit through 503 burst: %v", err)
	}
	if reply.Accepted != 4 {
		t.Fatalf("reply %+v", reply)
	}
	if !pool.Finished() {
		t.Fatal("pool should be finished")
	}
}

func TestClientMapsGoneToLeaseExpired(t *testing.T) {
	hub := NewHub() // no pools: every lease ID is unknown
	srv := httptest.NewServer(newShardMux(hub))
	defer srv.Close()
	cl := &Client{Base: srv.URL, RetryBase: time.Millisecond}
	if _, err := cl.Renew("0123456789abcdef", 1); !errors.Is(err, ErrLeaseExpired) {
		t.Fatalf("renew of unknown lease: %v, want ErrLeaseExpired", err)
	}
	env := []rewrite.BitResult{okResult(0)}
	if _, err := cl.Submit("0123456789abcdef", 1, env); !errors.Is(err, ErrLeaseExpired) {
		t.Fatalf("submit to unknown lease: %v, want ErrLeaseExpired", err)
	}
	if _, err := cl.Lease("w", 0); !errors.Is(err, ErrNoWork) {
		t.Fatalf("lease with no pools: %v, want ErrNoWork", err)
	}
}

func TestRunPeerExecutesRemoteExtraction(t *testing.T) {
	// Full 2-node shape in one process: a coordinator with no local workers
	// publishes a pool over HTTP; RunPeer on the other side pulls the
	// netlist over the wire, verifies its hash, computes every cone and
	// submits back. The extraction must produce the exact P(x).
	p, err := polytab.Default(8)
	if err != nil {
		t.Fatal(err)
	}
	n, err := gen.Mastrovito(8, p)
	if err != nil {
		t.Fatal(err)
	}
	hub := NewHub()
	srv := httptest.NewServer(newShardMux(hub))
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	peerDone := make(chan error, 1)
	go func() {
		peerDone <- RunPeer(ctx, srv.URL, PeerConfig{ID: "p", Workers: 2, IdleSleep: time.Millisecond})
	}()

	ext, _, stats, err := Extract(n, extract.Options{}, ExtractOptions{Workers: -1, Hub: hub})
	if err != nil {
		t.Fatal(err)
	}
	if !ext.P.Equal(p) {
		t.Fatalf("remote extraction got %v, want %v", ext.P, p)
	}
	if !ext.Verified {
		t.Fatal("golden verification should pass")
	}
	if stats.Accepted != 8 || stats.DoubleAccepts != 0 {
		t.Fatalf("stats %+v", stats)
	}
	cancel()
	if err := <-peerDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("peer exit: %v", err)
	}
}

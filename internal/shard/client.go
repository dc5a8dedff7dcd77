// HTTP client side of the /shards protocol: a Source over a remote hub,
// plus RunPeer — the long-running loop a gfred node uses to execute cone
// leases for its peers. Transport robustness lives here: submissions are
// idempotent server-side, so the client retries 5xx bursts and dropped
// connections with capped backoff; 410 is the epoch fence and is final.
package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"github.com/galoisfield/gfre/internal/checkpoint"
	"github.com/galoisfield/gfre/internal/netlist"
	"github.com/galoisfield/gfre/internal/obs"
	"github.com/galoisfield/gfre/internal/rewrite"
)

// Client speaks the /shards endpoints of one coordinator. It implements
// Source; the Have callback lets the peer advertise cached netlists.
type Client struct {
	// Base is the coordinator's base URL, e.g. "http://host:8080".
	Base string
	// HTTPClient defaults to a client with a per-request timeout.
	HTTPClient *http.Client
	// Have returns the content hashes this worker already holds.
	Have func() []string
	// Retries bounds the submit/renew retry ladder on transport faults
	// and 5xx (0 selects 4).
	Retries int
	// RetryBase is the backoff base between retries (0 selects 100ms).
	RetryBase time.Duration

	// LastNetlist holds the EQN body of the most recent grant that
	// carried one, keyed for the caller by LastHash.
	mu          sync.Mutex
	lastNetlist string
	lastHash    string
}

func (c *Client) http() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return &http.Client{Timeout: 30 * time.Second}
}

func (c *Client) retries() int {
	if c.Retries <= 0 {
		return 4
	}
	return c.Retries
}

func (c *Client) retryBase() time.Duration {
	if c.RetryBase <= 0 {
		return 100 * time.Millisecond
	}
	return c.RetryBase
}

// Lease requests work. A grant carrying a netlist body is stashed for
// TakeNetlist; ErrNoWork maps from 204.
func (c *Client) Lease(worker string, max int) (*Grant, error) {
	var have []string
	if c.Have != nil {
		have = c.Have()
	}
	body, _ := json.Marshal(LeaseRequest{Worker: worker, Max: max, Have: have})
	resp, err := c.http().Post(c.Base+"/shards/lease", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusNoContent:
		return nil, ErrNoWork
	case http.StatusOK:
	default:
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return nil, fmt.Errorf("shard: lease: unexpected status %s", resp.Status)
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxEnvelopeBytes+1))
	if err != nil {
		return nil, err
	}
	g, err := DecodeGrant(data)
	if err != nil {
		return nil, err
	}
	if g.Netlist != "" {
		c.mu.Lock()
		c.lastNetlist, c.lastHash = g.Netlist, g.Hash
		c.mu.Unlock()
	}
	return g, nil
}

// TakeNetlist returns the EQN body delivered with the last grant for hash,
// if any.
func (c *Client) TakeNetlist(hash string) (string, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.lastHash != hash || c.lastNetlist == "" {
		return "", false
	}
	return c.lastNetlist, true
}

// Renew heartbeats a lease; 410 maps to ErrLeaseExpired.
func (c *Client) Renew(leaseID string, epoch uint64) (time.Time, error) {
	body, _ := json.Marshal(RenewRequest{Epoch: epoch})
	var reply RenewReply
	err := c.postRetry("/shards/"+leaseID+"/renew", body, &reply)
	if err != nil {
		return time.Time{}, err
	}
	return time.Unix(0, reply.DeadlineUnixNS), nil
}

// Submit packs the results into a wire envelope and pushes it; transport
// faults and 5xx retry with capped backoff (idempotent server-side), 410
// maps to ErrLeaseExpired.
func (c *Client) Submit(leaseID string, epoch uint64, results []rewrite.BitResult) (SubmitReply, error) {
	var reply SubmitReply
	err := c.postRetry("/shards/"+leaseID+"/result", encodeResultEnvelope(epoch, results), &reply)
	return reply, err
}

// postRetry POSTs body to path, retrying transport errors and 5xx with
// capped-exponential backoff. 410 Gone is the epoch fence: final.
func (c *Client) postRetry(path string, body []byte, out any) error {
	var last error
	delay := c.retryBase()
	for attempt := 0; attempt <= c.retries(); attempt++ {
		if attempt > 0 {
			time.Sleep(delay)
			if delay < 2*time.Second {
				delay *= 2
			}
		}
		resp, err := c.http().Post(c.Base+path, "application/json", bytes.NewReader(body))
		if err != nil {
			last = err
			continue
		}
		data, rerr := io.ReadAll(io.LimitReader(resp.Body, maxEnvelopeBytes))
		resp.Body.Close()
		switch {
		case resp.StatusCode == http.StatusGone:
			return ErrLeaseExpired
		case resp.StatusCode >= 500:
			last = fmt.Errorf("shard: %s: %s", path, resp.Status)
			continue
		case resp.StatusCode != http.StatusOK:
			return fmt.Errorf("shard: %s: unexpected status %s", path, resp.Status)
		case rerr != nil:
			last = rerr // truncated body: retry, the server already acted
			continue
		}
		if err := json.Unmarshal(data, out); err != nil {
			last = err
			continue
		}
		return nil
	}
	return last
}

// PeerConfig tunes RunPeer.
type PeerConfig struct {
	// ID names this peer in worker IDs ("" selects "peer").
	ID string
	// Workers is the concurrent lease-executing goroutine count (0 = 1).
	Workers int
	// Rewrite carries local governance overrides (grant hints fill zeros).
	Rewrite rewrite.Options
	// IdleSleep is the poll interval when the coordinator has no work
	// (0 selects 250ms).
	IdleSleep time.Duration
	// Recorder observes peer_lease events; nil disables.
	Recorder *obs.Recorder
}

// RunPeer executes cone leases from a remote coordinator until ctx ends.
// Netlists arrive with the first grant per content hash and are cached for
// the lifetime of the loop; the coordinator omits bodies for hashes the
// peer advertises. Unlike RunWorkers there is no ErrDone — a peer outlives
// any single job and keeps polling for the next one.
func RunPeer(ctx context.Context, base string, cfg PeerConfig) error {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.ID == "" {
		cfg.ID = "peer"
	}
	if cfg.IdleSleep <= 0 {
		cfg.IdleSleep = 250 * time.Millisecond
	}
	base = strings.TrimRight(base, "/")

	var (
		nmu  sync.Mutex
		nets = map[string]*netlist.Netlist{}
	)
	cl := &Client{Base: base, Have: func() []string {
		nmu.Lock()
		defer nmu.Unlock()
		hashes := make([]string, 0, len(nets))
		for h := range nets {
			hashes = append(hashes, h)
		}
		return hashes
	}}

	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// The worker, and with it the rewrite tables, lives for one
			// job's leases: tables grown for a large field would otherwise
			// be cleared for every cone of each later small one, and an
			// idle peer would hold them indefinitely.
			var (
				rw  *rewrite.Worker
				job string
			)
			// Reusable idle timer: time.After per iteration would leak a
			// timer allocation for every empty poll.
			var idle *time.Timer
			defer func() {
				if idle != nil {
					idle.Stop()
				}
			}()
			for ctx.Err() == nil {
				g, err := cl.Lease(workerName(cfg.ID, w), 0)
				if err != nil || g == nil {
					rw = nil
					if idle == nil {
						idle = time.NewTimer(cfg.IdleSleep)
					} else {
						// Safe: the loop only re-reaches this Reset after
						// draining idle.C (the ctx.Done arm ends the loop).
						idle.Reset(cfg.IdleSleep)
					}
					select {
					case <-ctx.Done():
					case <-idle.C:
					}
					continue
				}
				n := resolveNetlist(cl, g, nets, &nmu)
				if n == nil {
					continue // no body and no cache: let the lease expire
				}
				if cfg.Recorder != nil {
					cfg.Recorder.Emit("peer_lease", g.Lease, map[string]int64{
						"epoch": int64(g.Epoch), "cones": int64(len(g.Cones)),
					})
				}
				if rw == nil || g.Hash != job {
					rw, job = rewrite.NewWorker(nil), g.Hash
				}
				ExecuteLease(ctx, cl, n, g, rw, cfg.Rewrite)
			}
		}(w)
	}
	wg.Wait()
	return ctx.Err()
}

func resolveNetlist(cl *Client, g *Grant, nets map[string]*netlist.Netlist, mu *sync.Mutex) *netlist.Netlist {
	mu.Lock()
	n := nets[g.Hash]
	mu.Unlock()
	if n != nil {
		return n
	}
	eqn, ok := cl.TakeNetlist(g.Hash)
	if !ok {
		return nil
	}
	// Re-read under the name recorded in the EQN header: the content hash
	// covers the canonical serialization including that name, so parsing
	// under a local alias would make the verification below always fail.
	n, err := netlist.ReadEQN(strings.NewReader(eqn), netlist.EQNName(eqn, "shard-"+g.Hash[:8]))
	if err != nil {
		return nil
	}
	// Defense in depth: recompute the content hash before caching, so a
	// corrupted or mismatched body can never poison results for g.Hash.
	if h, err := checkpoint.HashNetlist(n); err != nil || h != g.Hash {
		return nil
	}
	mu.Lock()
	nets[g.Hash] = n
	mu.Unlock()
	return n
}

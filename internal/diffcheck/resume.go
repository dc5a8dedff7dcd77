package diffcheck

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"time"

	"github.com/galoisfield/gfre/internal/checkpoint"
	"github.com/galoisfield/gfre/internal/extract"
)

// runResume exercises the crash-safe checkpoint/resume path differentially:
// extraction is hard-cancelled at a random cone boundary (the seed picks how
// many cones must finish first), then resumed from the on-disk snapshot. The
// resumed run must recover exactly the planted P(x), and its cone-reuse
// count must equal the snapshot's completed-cone count — proving the
// snapshot captured every finished cone and the resume re-rewrote only the
// pending ones.
func runResume(c Case, stage *string, fail func(error) Result) Result {
	*stage = "gen"
	n, err := c.Generate()
	if err != nil {
		return fail(err)
	}
	res := Result{Case: c, Status: Pass, Gates: n.NumGates()}

	dir, err := os.MkdirTemp("", "gfre-diffresume-*")
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(dir)

	// Interrupted run: single-threaded so cones complete one at a time, an
	// unthrottled manager so every completed cone hits the disk, and a
	// watcher that cancels the context the moment `target` cones are done —
	// a cancellation landing at a cone boundary, like a SIGTERM would.
	r := rand.New(rand.NewSource(c.Seed))
	target := 1 + r.Intn(c.M)
	mgr := checkpoint.NewManager(dir, 0)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stopWatch := make(chan struct{})
	watchDone := make(chan struct{})
	go func() {
		defer close(watchDone)
		for {
			select {
			case <-stopWatch:
				return
			case <-time.After(200 * time.Microsecond):
			}
			if s := mgr.Snapshot(); s != nil && s.DoneCones() >= target {
				cancel()
				return
			}
		}
	}()
	*stage = "interrupt"
	_, ierr := extract.IrreduciblePolynomial(n, extract.Options{
		Threads: 1, Ctx: ctx, Checkpoint: mgr,
	})
	close(stopWatch)
	<-watchDone

	// The run either was cancelled (expected) or outran the watcher and
	// finished — both leave a loadable snapshot; anything else is a failure.
	if ierr != nil && !errors.Is(ierr, context.Canceled) {
		return fail(fmt.Errorf("interrupted run failed outside cancellation: %w", ierr))
	}
	*stage = "snapshot"
	snap, err := checkpoint.Load(dir)
	if err != nil {
		return fail(fmt.Errorf("no resumable snapshot after cancellation: %w", err))
	}
	doneAtCancel := snap.DoneCones()
	if doneAtCancel == 0 {
		return fail(fmt.Errorf("snapshot recorded no completed cones (target %d)", target))
	}

	*stage = "resume"
	ext, err := extract.IrreduciblePolynomial(n, extract.Options{
		Threads:    c.Threads,
		Checkpoint: checkpoint.NewManager(dir, 0),
		Resume:     true,
	})
	if err != nil {
		return fail(err)
	}
	*stage = "compare"
	if !ext.P.Equal(c.P) {
		return fail(fmt.Errorf("diffcheck: resumed run extracted %v, planted %v", ext.P, c.P))
	}
	if ext.Rewrite.Reused != doneAtCancel {
		return fail(fmt.Errorf("diffcheck: resume reused %d cones, snapshot held %d",
			ext.Rewrite.Reused, doneAtCancel))
	}
	res.Verdict = map[string]int64{"reused": int64(ext.Rewrite.Reused)}
	return res
}

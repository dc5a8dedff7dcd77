package checkpoint

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"github.com/galoisfield/gfre/internal/gf2poly"
	"github.com/galoisfield/gfre/internal/netlist"
	"github.com/galoisfield/gfre/internal/rewrite"
)

// Manager owns one extraction's checkpoint: it is the glue between the
// rewriting engine's per-cone completion hook and the cone log in its
// directory. All methods are safe for concurrent use — Record is called
// from every rewriting worker.
//
// Begin (or Restore) writes a fresh log; every later change is one record
// appended to it. At throttle 0 each Record appends and fsyncs its record
// before it returns, so a returned Record is a durable cone. A positive
// throttle holds records in memory and appends them at most once per
// window (or at an explicit Sync), so a crash loses at most one window of
// completed cones — each of which the resumed run simply re-rewrites. The
// manager starts no goroutine and holds no file open between appends.
type Manager struct {
	dir string
	// throttle is the minimum interval between log appends (0 = append on
	// every Record).
	throttle time.Duration

	mu       sync.Mutex
	snap     *Snapshot
	pending  []byte // framed records not yet appended to the log
	lastSave time.Time
	saveErr  error
}

// NewManager creates a manager persisting into dir. throttle < 0 selects
// the default (250ms); 0 appends and fsyncs every recorded cone, about a
// tenth of a millisecond per cone on a local SSD.
func NewManager(dir string, throttle time.Duration) *Manager {
	if throttle < 0 {
		throttle = 250 * time.Millisecond
	}
	return &Manager{dir: dir, throttle: throttle}
}

// Dir returns the checkpoint directory.
func (m *Manager) Dir() string { return m.dir }

// Begin starts a fresh checkpoint for n: it writes a log holding only the
// header, replacing any stale log or legacy snapshot in the directory.
func (m *Manager) Begin(n *netlist.Netlist) error {
	hash, err := HashNetlist(n)
	if err != nil {
		return err
	}
	outs := n.OutputNames()
	s := &Snapshot{
		NetlistHash: hash,
		NetlistName: n.Name,
		M:           len(outs),
		Bits:        make([]Cone, len(outs)),
	}
	for i, name := range outs {
		s.Bits[i] = Cone{Bit: i, Name: name}
	}
	return m.start(s)
}

// start writes s as the directory's log and adopts it as the manager's
// state.
func (m *Manager) start(s *Snapshot) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.snap, m.pending, m.lastSave, m.saveErr = nil, nil, time.Time{}, nil
	if err := writeLog(m.dir, s); err != nil {
		return err
	}
	s.SavedUnixNS = time.Now().UnixNano()
	m.snap = s
	return nil
}

// Restore loads the directory's checkpoint, verifies it matches n (content
// hash and output count), adopts it as the manager's state, and returns the
// completed cones as prior results for rewrite.Options.Prior. The run then
// continues into a fresh log holding exactly what was loaded: a torn tail
// is dropped and a legacy snapshot is carried over. A missing checkpoint
// falls back to Begin and returns no priors; one bound to a different
// netlist is ErrCheckpoint — resuming it would splice foreign expressions
// into this run.
func (m *Manager) Restore(n *netlist.Netlist) ([]rewrite.BitResult, error) {
	s, err := Load(m.dir)
	if errors.Is(err, ErrNoCheckpoint) {
		return nil, m.Begin(n)
	}
	if err != nil {
		return nil, err
	}
	hash, err := HashNetlist(n)
	if err != nil {
		return nil, err
	}
	if s.NetlistHash != hash {
		return nil, fmt.Errorf("%w: snapshot is for netlist %s (%.12s…), resuming %s (%.12s…)",
			ErrCheckpoint, s.NetlistName, s.NetlistHash, n.Name, hash)
	}
	if s.M != len(n.Outputs()) {
		return nil, fmt.Errorf("%w: snapshot has %d bits, netlist %d", ErrCheckpoint, s.M, len(n.Outputs()))
	}
	prior := make([]rewrite.BitResult, 0, s.DoneCones())
	for _, c := range s.Bits {
		if !c.Done() {
			continue
		}
		br, err := c.BitResult()
		if err != nil {
			return nil, err
		}
		prior = append(prior, br)
	}
	if err := m.start(s); err != nil {
		return nil, err
	}
	return prior, nil
}

// Record stores one cone's terminal result and appends its record when the
// throttle window allows. Failed cones are recorded too — their status and
// error survive the restart as diagnostics — but stay pending for resume
// purposes. Write errors are sticky and surface from Sync; after one, the
// log is left as it is, since a record past a torn one would never replay.
func (m *Manager) Record(br rewrite.BitResult) {
	c, expr := packCone(br)
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.snap == nil || br.Bit < 0 || br.Bit >= len(m.snap.Bits) {
		return
	}
	m.snap.Bits[br.Bit] = c
	m.pending = appendConeRecord(m.pending, c, expr)
	if m.throttle == 0 || time.Since(m.lastSave) >= m.throttle {
		m.flushLocked()
	}
}

// AddRetries folds one run's governor retry count into the checkpoint's
// cumulative total, so the retry state survives restarts.
func (m *Manager) AddRetries(retries int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.snap == nil || retries == 0 {
		return
	}
	m.snap.Retries += retries
	m.pending = appendRetriesRecord(m.pending, m.snap.Retries)
}

// Finalize records the recovered polynomial, marks the checkpoint complete,
// and appends everything pending.
func (m *Manager) Finalize(p gf2poly.Poly) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.snap == nil {
		return nil
	}
	m.snap.P = p.String()
	m.snap.Complete = true
	m.pending = appendFinalRecord(m.pending, true, m.snap.P)
	m.flushLocked()
	return m.saveErr
}

// Sync appends any pending records and reports the first write error seen
// since the last Begin/Restore. Call on every shutdown path — it is what
// bounds the work lost to an interrupt to the in-flight cones.
func (m *Manager) Sync() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.flushLocked()
	return m.saveErr
}

// Snapshot returns a copy of the in-memory snapshot (nil before Begin).
func (m *Manager) Snapshot() *Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.snap == nil {
		return nil
	}
	cp := *m.snap
	cp.Bits = append([]Cone(nil), m.snap.Bits...)
	return &cp
}

// flushLocked appends the pending records to the log and fsyncs it; the
// caller holds m.mu.
func (m *Manager) flushLocked() {
	if len(m.pending) == 0 {
		return
	}
	if m.saveErr == nil {
		m.saveErr = appendFile(filepath.Join(m.dir, LogFile), m.pending)
	}
	m.pending = nil
	if m.saveErr == nil {
		m.lastSave = time.Now()
		m.snap.SavedUnixNS = m.lastSave.UnixNano()
	}
}

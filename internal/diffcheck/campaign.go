package diffcheck

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"github.com/galoisfield/gfre/internal/gf2poly"
	"github.com/galoisfield/gfre/internal/obs"
)

// Config bounds a differential campaign.
type Config struct {
	// N is the number of cases; Seed makes the whole campaign deterministic
	// (case i depends only on Seed and i, not on scheduling).
	N    int
	Seed int64
	// Workers is the parallel case-runner count (0 = GOMAXPROCS).
	Workers int
	// Timeout is the per-case budget (0 = 30s). A timed-out case is a
	// failure; its goroutine is abandoned, which a fuzzing campaign accepts
	// in exchange for forward progress.
	Timeout time.Duration

	// Kind is the campaign's case kind (zero value: KindMultiplier; see the
	// Kind constants). Kinds other than multiplier sample only m, P(x), the
	// architecture and their own parameters.
	Kind Kind

	// MinM..MaxM is the field-size range (defaults 3..12).
	MinM, MaxM int
	// Archs and Formats restrict sampling (defaults: all).
	Archs   []Arch
	Formats []Format
	// MaxOptPasses bounds the random pass sequence per case (default 2).
	MaxOptPasses int
	// Scramble enables port-scrambled cases (extraction must then infer the
	// operand partition and bit orders).
	Scramble bool
	// Adversarial mixes in one random-DAG robustness case every this many
	// cases (0 = off).
	Adversarial int
	// Inject plants a flipped XOR in every multiplier case (see Case.Inject)
	// to prove the harness catches and minimizes real faults; a diagnose
	// campaign plants this many trojans per case instead, and an obfuscate
	// campaign flips the XOR in each locked design.
	Inject int

	// Recorder streams campaign telemetry (case_start / case_pass /
	// case_fail events and the campaign span); nil disables it.
	Recorder *obs.Recorder
	// ReproDir, when set, receives a minimized .eqn repro per failure
	// (minimization needs a functional deviation to hold onto).
	ReproDir string
}

// campaignSimTrials is the 64-vector word count per simulation oracle in
// campaign cases: campaigns trade per-case depth for case count.
const campaignSimTrials = 2

func (cfg *Config) setDefaults() {
	if cfg.N <= 0 {
		cfg.N = 100
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 30 * time.Second
	}
	if cfg.Kind == "" {
		cfg.Kind = KindMultiplier
	}
	if cfg.MinM < 2 {
		cfg.MinM = 3
	}
	if cfg.MaxM < cfg.MinM {
		cfg.MaxM = cfg.MinM + 9
	}
	if len(cfg.Archs) == 0 {
		cfg.Archs = AllArchs()
	}
	if len(cfg.Formats) == 0 {
		cfg.Formats = AllFormats()
	}
	if cfg.MaxOptPasses == 0 {
		cfg.MaxOptPasses = 2
	}
}

// NewCase deterministically samples case idx of a campaign.
func NewCase(idx int, cfg Config) Case {
	cfg.setDefaults()
	// Per-case generator: mix the index into the seed with a splitmix-style
	// odd constant so neighboring cases decorrelate.
	seed := cfg.Seed + int64(idx)*-0x61C8864680B583EB + 1
	c := Case{Index: idx, Seed: seed, Kind: cfg.Kind, SimTrials: campaignSimTrials}
	if cfg.Adversarial > 0 && idx%cfg.Adversarial == cfg.Adversarial-1 {
		c.Kind = KindAdversarial
	}
	if s, ok := specOf(c.Kind); ok {
		s.sample(&c, rand.New(rand.NewSource(seed)), cfg)
	}
	return c
}

// InferenceSafe reports whether port inference is unambiguous for p: every
// reduced power x^k mod p for m <= k <= 2m-2 must have weight >= 2 (see
// package extract's port-inference preconditions). Rare low-order
// polynomials fail this; scrambled cases skip them rather than demand the
// impossible from inference.
func InferenceSafe(p gf2poly.Poly) bool {
	m := p.Deg()
	for k := m; k <= 2*m-2; k++ {
		if gf2poly.Monomial(k).Mod(p).Weight() < 2 {
			return false
		}
	}
	return true
}

// Summary aggregates a campaign.
type Summary struct {
	Cases    int
	Passed   int
	Failed   int
	Panics   int
	Timeouts int
	Duration time.Duration
	// ByArch / ByFormat count cases per dimension (failures in parens are
	// tracked separately in Failures).
	ByArch   map[string]int
	ByFormat map[string]int
	// Failures holds every failing result, in case order.
	Failures []Result
	// Repros lists written repro file paths, parallel to Failures where
	// minimization succeeded ("" where it did not apply).
	Repros []string
	// Tally aggregates the verdicts of the campaign kind's cases.
	Tally Tally
}

// Tally aggregates the Result.Verdict payloads of one kind's cases.
type Tally struct {
	Kind     Kind
	Cases    int // cases of Kind (adversarial mix-ins are not tallied)
	Verdicts int // of those, the cases that reached their kind's verdict
	// Values lists each payload key's values in case order.
	Values map[string][]int64
}

func (t *Tally) add(res Result) {
	t.Cases++
	if res.Verdict == nil {
		return
	}
	t.Verdicts++
	for k, v := range res.Verdict {
		t.Values[k] = append(t.Values[k], v)
	}
}

// Sum totals a payload key over the tallied verdicts.
func (t Tally) Sum(key string) int64 {
	var s int64
	for _, v := range t.Values[key] {
		s += v
	}
	return s
}

// Max is a payload key's maximum over the tallied verdicts (0 when none).
func (t Tally) Max(key string) int64 {
	var m int64
	for _, v := range t.Values[key] {
		m = max(m, v)
	}
	return m
}

// LocPrecision is the fraction of a diagnosis campaign's cases whose
// localization covered every planted trojan (0 when none ran).
func (t Tally) LocPrecision() float64 {
	if t.Cases == 0 {
		return 0
	}
	return float64(t.Sum("loc_hit")) / float64(t.Cases)
}

// MedianLocRank is the median best-suspect rank across localized cases
// (-1 when none).
func (t Tally) MedianLocRank() int {
	var ranks []int
	for _, r := range t.Values["loc_rank"] {
		if r >= 0 {
			ranks = append(ranks, int(r))
		}
	}
	if len(ranks) == 0 {
		return -1
	}
	sort.Ints(ranks)
	return ranks[len(ranks)/2]
}

// Line renders the kind's one-line campaign report ("" when it has none).
func (t Tally) Line() string {
	if s, _ := specOf(t.Kind); s.summary != nil {
		return s.summary(t)
	}
	return ""
}

// RunCampaign executes cfg.N deterministic cases on a worker pool and
// aggregates the outcomes. The error return reports campaign-infrastructure
// problems only (e.g. an unknown kind or an unwritable repro directory);
// case failures are reported through the summary.
func RunCampaign(cfg Config) (*Summary, error) {
	cfg.setDefaults()
	if _, ok := specOf(cfg.Kind); !ok {
		return nil, fmt.Errorf("diffcheck: unknown campaign kind %q", cfg.Kind)
	}
	if cfg.ReproDir != "" {
		if err := os.MkdirAll(cfg.ReproDir, 0o755); err != nil {
			return nil, err
		}
	}
	rec := cfg.Recorder
	span := rec.StartSpan("diffcheck.campaign", map[string]int64{
		"cases": int64(cfg.N), "workers": int64(cfg.Workers), "seed": cfg.Seed,
	})

	jobs := make(chan int)
	results := make(chan Result)
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range jobs {
				c := NewCase(idx, cfg)
				rec.Emit("case_start", c.Label(), map[string]int64{"case": int64(idx)})
				results <- runWithTimeout(c, cfg.Timeout)
			}
		}()
	}
	go func() {
		for i := 0; i < cfg.N; i++ {
			jobs <- i
		}
		close(jobs)
		wg.Wait()
		close(results)
	}()

	sum := &Summary{ByArch: map[string]int{}, ByFormat: map[string]int{}, Tally: Tally{Kind: cfg.Kind, Values: map[string][]int64{}}}
	start := time.Now()
	collected := make([]Result, 0, cfg.N)
	for res := range results {
		collected = append(collected, res)
		ev := "case_pass"
		if res.Status == Fail {
			ev = "case_fail"
		}
		v := map[string]int64{
			"case": int64(res.Case.Index), "m": int64(res.Case.M),
			"gates": int64(res.Gates), "dur_ns": int64(res.Dur),
		}
		for k, x := range res.Verdict {
			v[k] = x
		}
		rec.Emit(ev, res.Case.Label(), v)
		rec.Metrics().Counter("diffcheck_" + string(res.Status)).Inc()
	}
	// Deterministic report order regardless of worker scheduling.
	sort.Slice(collected, func(i, j int) bool { return collected[i].Case.Index < collected[j].Case.Index })

	for _, res := range collected {
		sum.Cases++
		if res.Case.Kind == KindMultiplier {
			sum.ByArch[string(res.Case.Arch)]++
			sum.ByFormat[string(res.Case.Format)]++
		} else {
			sum.ByArch[string(res.Case.Kind)]++
		}
		if res.Case.Kind == cfg.Kind {
			sum.Tally.add(res)
		}
		if res.Status == Pass {
			sum.Passed++
			continue
		}
		sum.Failed++
		if res.Panicked {
			sum.Panics++
		}
		if res.Stage == "timeout" {
			sum.Timeouts++
		}
		repro := ""
		if cfg.ReproDir != "" && res.Netlist != nil {
			if path, err := writeRepro(cfg.ReproDir, res); err == nil {
				repro = path
			}
		}
		sum.Failures = append(sum.Failures, res)
		sum.Repros = append(sum.Repros, repro)
	}
	sum.Duration = time.Since(start)
	span.End()
	return sum, nil
}

// runWithTimeout runs the case on its own goroutine and abandons it past
// the deadline (Run itself converts panics into Fail results).
func runWithTimeout(c Case, timeout time.Duration) Result {
	done := make(chan Result, 1)
	go func() { done <- Run(c) }()
	select {
	case res := <-done:
		return res
	case <-time.After(timeout):
		return Result{
			Case:   c,
			Status: Fail,
			Stage:  "timeout",
			Err:    fmt.Sprintf("case exceeded %v", timeout),
		}
	}
}

// writeRepro minimizes the failing netlist (when it functionally deviates
// from the planted specification) and writes it as an .eqn repro file.
func writeRepro(dir string, res Result) (string, error) {
	n := res.Netlist
	if min, err := Minimize(n, MinimizeOptions{
		P:       res.Case.P,
		Binding: res.Binding,
		Seed:    res.Case.Seed,
	}); err == nil {
		n = min
	}
	n.Name = fmt.Sprintf("repro_case%d_%s", res.Case.Index, sanitize(res.Case.Label()))
	path := filepath.Join(dir, fmt.Sprintf("repro_case%d.eqn", res.Case.Index))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	werr := n.WriteEQN(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return "", werr
	}
	return path, nil
}

func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			out = append(out, r)
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}

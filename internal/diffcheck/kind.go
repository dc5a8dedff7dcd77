package diffcheck

import (
	"fmt"
	"math/rand"

	"github.com/galoisfield/gfre/internal/gf2poly"
)

// Kind names what a case checks. A campaign runs one kind (Config.Kind),
// optionally mixed with adversarial cases; the kinds table holds everything
// the harness does differently per kind.
type Kind string

// Case kinds.
const (
	KindMultiplier  Kind = "multiplier"
	KindAdversarial Kind = "adversarial"
	// KindDiagnose plants Inject trojans in distinct output cones of a
	// matrix-form multiplier and asserts that fault-tolerant extraction
	// recovers P(x) AND localizes every planted gate (suspect inside its
	// fanout cone).
	KindDiagnose Kind = "diagnose"
	// KindResume hard-cancels an extraction at a random cone boundary, then
	// resumes it from the on-disk checkpoint and asserts both the recovered
	// P(x) and the cone-reuse count match the snapshot (the crash-safety
	// oracle of package checkpoint).
	KindResume Kind = "resume"
	// KindChaos runs the extraction through the lease-based shard scheduler
	// under injected faults — killed workers, expired leases, delayed,
	// duplicated and reordered submissions — and asserts the planted P(x) is
	// still recovered exactly, with zero double-counted cones (the
	// distributed-robustness oracle of package shard).
	KindChaos Kind = "chaos"
	// KindObfuscate locks a generated multiplier with planted key gates
	// (XOR lock, MUX lock, or opaque AND-tree — gen.Obfuscate) and asserts
	// the semantic detector's arms-race oracle: the locked design under the
	// correct (all-zero) key is simulation-equivalent to the clean one, the
	// clean design produces zero key findings (no false positives), and the
	// locked design's detected gated-key set equals the planted set exactly
	// (100% detection, nothing fabricated).
	KindObfuscate Kind = "obfuscate"
	// KindOverload attacks a small gfred queue with adversarial tenants — a
	// greedy batch-flooder and a deadline-abuser — while one well-behaved
	// tenant slow-drips jobs, and asserts the admission plane isolated them:
	// exact P(x) for the polite tenant at bounded p99, zero quota violations,
	// dedup and deadline expiry observed, one terminal event per accepted job
	// (the multi-tenant-resilience oracle of package server).
	KindOverload Kind = "overload"
)

// kindSpec is one row of the kinds table.
type kindSpec struct {
	// sample draws the kind's case parameters from the per-case generator.
	sample func(c *Case, r *rand.Rand, cfg Config)
	// run executes the kind's oracles; see Run for stage and fail. It is
	// nil for KindMultiplier, whose pipeline is Run's own body.
	run   func(c Case, stage *string, fail func(error) Result) Result
	label func(c Case) string
	// summary renders a campaign's tally as one report line ("" when there
	// is nothing to report; nil for kinds without a line).
	summary func(t Tally) string
}

// kinds is the case-kind table: sampling, dispatch, labels and reporting
// all look a kind up here, so a new kind is one row plus its run function.
//
// Every kind but multiplier bypasses the optimization, format and scramble
// stages: its oracle targets one subsystem (diagnosis, checkpoints, the
// lease scheduler, the admission plane, the lock detector) and must hold on
// raw generated structure first.
var kinds = map[Kind]kindSpec{
	KindMultiplier: {sample: sampleMultiplier, label: multiplierLabel},
	KindAdversarial: {
		sample: func(*Case, *rand.Rand, Config) {},
		run:    runAdversarial,
		label:  func(c Case) string { return fmt.Sprintf("adversarial/seed=%d", c.Seed) },
	},
	KindDiagnose: {
		sample: sampleDiagnose,
		run:    runDiagnose,
		label:  func(c Case) string { return fmt.Sprintf("diagnose/%s/m=%d/k=%d", c.Arch, c.M, c.Inject) },
		// Every diagnose case counts: a failed one is a missed localization.
		summary: func(t Tally) string {
			if t.Cases == 0 {
				return ""
			}
			return fmt.Sprintf("localization: %d/%d cases fully localized (precision %.0f%%), median best-suspect rank %d",
				t.Sum("loc_hit"), t.Cases, 100*t.LocPrecision(), t.MedianLocRank())
		},
	},
	KindResume: {
		sample: sampleField,
		run:    runResume,
		label:  kindArchLabel,
		summary: func(t Tally) string {
			if t.Verdicts == 0 {
				return ""
			}
			return fmt.Sprintf("resume: %d interrupted runs recovered, %d checkpointed cones reused",
				t.Verdicts, t.Sum("reused"))
		},
	},
	KindChaos: {
		sample: sampleField,
		run:    runChaos,
		label:  kindArchLabel,
		summary: func(t Tally) string {
			if t.Verdicts == 0 {
				return ""
			}
			return fmt.Sprintf("chaos: %d fault-injected runs recovered (%d workers killed, %d leases expired, %d zombies fenced, %d leases stolen)",
				t.Verdicts, t.Sum("kills"), t.Sum("expired"), t.Sum("fenced"), t.Sum("stolen"))
		},
	},
	KindOverload: {
		// Each case submits dozens of jobs: fields of at most 10 bits keep
		// every extraction fast enough that the well-behaved tenant's latency
		// bound measures scheduling, not rewriting.
		sample: func(c *Case, r *rand.Rand, cfg Config) {
			drawField(c, r, cfg.MinM, min(cfg.MaxM, 10), cfg.Archs)
		},
		run:   runOverload,
		label: kindArchLabel,
		summary: func(t Tally) string {
			if t.Verdicts == 0 {
				return ""
			}
			return fmt.Sprintf("overload: %d attacked queues stayed fair (%d quota rejects, %d shed rejects, %d deduped, %d deadlines expired, worst well-tenant p99 %dms)",
				t.Verdicts, t.Sum("quota_rejects"), t.Sum("shed_rejects"), t.Sum("deduped"),
				t.Sum("deadline_expired"), t.Max("well_p99_ms"))
		},
	},
	KindObfuscate: {
		sample: func(c *Case, r *rand.Rand, cfg Config) {
			c.Inject = cfg.Inject
			drawField(c, r, cfg.MinM, cfg.MaxM, cfg.Archs)
			styles := LockStyles()
			c.Lock = styles[r.Intn(len(styles))]
			c.Keys = 1 + r.Intn(4)
		},
		run: runObfuscate,
		label: func(c Case) string {
			return fmt.Sprintf("obfuscate/%s/%s/m=%d/k=%d", c.Lock, c.Arch, c.M, c.Keys)
		},
		summary: func(t Tally) string {
			if t.Verdicts == 0 {
				return ""
			}
			return fmt.Sprintf("obfuscate: %d locked designs analyzed, %d/%d planted keys detected, %d opaque constants exposed",
				t.Verdicts, t.Sum("keys_detected"), t.Sum("keys_planted"), t.Sum("opaque_hit"))
		},
	},
}

// specOf returns the table row of kind k; the zero Kind is KindMultiplier.
func specOf(k Kind) (kindSpec, bool) {
	if k == "" {
		k = KindMultiplier
	}
	s, ok := kinds[k]
	return s, ok
}

// drawField draws a case's planted field: m uniform in [lo, max(lo, hi)],
// a random irreducible P(x) of degree m and, unless archs is nil, an
// architecture with its digit width. Every kind draws in this order, so a
// campaign's cases are a function of its seed alone.
func drawField(c *Case, r *rand.Rand, lo, hi int, archs []Arch) {
	hi = max(hi, lo)
	c.M = lo + r.Intn(hi-lo+1)
	p, err := gf2poly.RandomIrreducible(r, c.M)
	if err != nil {
		// Unreachable for m >= 1; degrade to the standard choice.
		p = gf2poly.MustParse("x^8+x^4+x^3+x+1")
		c.M = 8
	}
	c.P = p
	if archs == nil {
		return
	}
	c.Arch = archs[r.Intn(len(archs))]
	if c.Arch == ArchDigitSerial {
		c.Digit = 1 + r.Intn(min(max(c.M-1, 1), 8))
	}
}

func sampleField(c *Case, r *rand.Rand, cfg Config) { drawField(c, r, cfg.MinM, cfg.MaxM, cfg.Archs) }

func sampleMultiplier(c *Case, r *rand.Rand, cfg Config) {
	c.Inject = cfg.Inject
	drawField(c, r, cfg.MinM, cfg.MaxM, cfg.Archs)
	if k := r.Intn(cfg.MaxOptPasses + 1); k > 0 {
		perm := r.Perm(len(PassNames))
		for _, pi := range perm[:k] {
			c.Opt = append(c.Opt, PassNames[pi])
		}
	}
	c.Format = cfg.Formats[r.Intn(len(cfg.Formats))]
	if cfg.Scramble && r.Intn(4) == 0 && InferenceSafe(c.P) {
		c.Scramble = true
	}
}

// sampleDiagnose plants max(Inject, 1) trojans in a matrix-form multiplier
// (private per-output cones keep each trojan confined to one bit) with
// enough healthy bits for consensus: m >= 3k+2 leaves a solid majority at
// tolerance k.
func sampleDiagnose(c *Case, r *rand.Rand, cfg Config) {
	k := max(cfg.Inject, 1)
	c.Inject = k
	c.Arch = ArchMatrix
	drawField(c, r, max(cfg.MinM, 3*k+2), cfg.MaxM, nil)
}

func kindArchLabel(c Case) string { return fmt.Sprintf("%s/%s/m=%d", c.Kind, c.Arch, c.M) }

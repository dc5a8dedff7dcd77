// Command gffuzz runs differential-testing campaigns against the whole
// reverse-engineering pipeline: it plants a random irreducible P(x), builds a
// multiplier, pushes it through random optimization passes, scrambling and
// format round trips, then demands that extraction recovers exactly the
// planted polynomial and that simulation matches GF(2^m) arithmetic.
//
// Usage:
//
//	gffuzz -n 500 -seed 1                  # deterministic 500-case campaign
//	gffuzz -n 200 -arch montgomery -m 4-16 # one architecture, wider fields
//	gffuzz -repro out/ -ndjson log.ndjson  # minimized repros + telemetry
//	gffuzz -selfcheck                      # prove the harness catches bugs
//	gffuzz -n 50 -diagnose -inject 2       # trojan-localization campaign
//	gffuzz -n 40 -chaos                    # fault-injected shard scheduling
//	gffuzz -n 10 -overload                 # adversarial multi-tenant queues
//	gffuzz -n 30 -obfuscate                # logic-locking detection arms race
//
// The -diagnose, -resume, -chaos, -overload and -obfuscate modes are
// exclusive; -inject applies to the default multiplier campaign and to
// -diagnose only.
//
// A campaign is fully determined by (-seed, -n, the sampling flags): case i
// depends only on the seed and i, never on scheduling, so any failure can be
// re-run in isolation.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/galoisfield/gfre/internal/diffcheck"
	"github.com/galoisfield/gfre/internal/gen"
	"github.com/galoisfield/gfre/internal/gf2poly"
	"github.com/galoisfield/gfre/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "gffuzz:", err)
		os.Exit(1)
	}
}

func parseRange(s string) (lo, hi int, err error) {
	if i := strings.IndexByte(s, '-'); i >= 0 {
		if lo, err = strconv.Atoi(s[:i]); err != nil {
			return 0, 0, fmt.Errorf("bad field-size range %q", s)
		}
		if hi, err = strconv.Atoi(s[i+1:]); err != nil {
			return 0, 0, fmt.Errorf("bad field-size range %q", s)
		}
		return lo, hi, nil
	}
	if lo, err = strconv.Atoi(s); err != nil {
		return 0, 0, fmt.Errorf("bad field size %q", s)
	}
	return lo, lo, nil
}

func parseArchs(s string) ([]diffcheck.Arch, error) {
	if s == "" {
		return nil, nil
	}
	known := map[diffcheck.Arch]bool{}
	for _, a := range diffcheck.AllArchs() {
		known[a] = true
	}
	var out []diffcheck.Arch
	for _, part := range strings.Split(s, ",") {
		a := diffcheck.Arch(strings.TrimSpace(part))
		if !known[a] {
			return nil, fmt.Errorf("unknown architecture %q (have %v)", a, diffcheck.AllArchs())
		}
		out = append(out, a)
	}
	return out, nil
}

func parseFormats(s string) ([]diffcheck.Format, error) {
	if s == "" {
		return nil, nil
	}
	known := map[diffcheck.Format]bool{}
	for _, f := range diffcheck.AllFormats() {
		known[f] = true
	}
	var out []diffcheck.Format
	for _, part := range strings.Split(s, ",") {
		f := diffcheck.Format(strings.TrimSpace(part))
		if !known[f] {
			return nil, fmt.Errorf("unknown format %q (have %v)", f, diffcheck.AllFormats())
		}
		out = append(out, f)
	}
	return out, nil
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("gffuzz", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		n           = fs.Int("n", 100, "number of cases")
		seed        = fs.Int64("seed", 1, "campaign seed (same seed = same cases)")
		workers     = fs.Int("workers", 0, "parallel case runners (0 = GOMAXPROCS)")
		timeout     = fs.Duration("timeout", 30*time.Second, "per-case budget")
		mrange      = fs.String("m", "3-12", "field-size range, e.g. 8 or 4-16")
		archs       = fs.String("arch", "", "comma-separated architectures (default: all)")
		formats     = fs.String("format", "", "comma-separated round-trip formats (default: all)")
		optPasses   = fs.Int("opt", 2, "max random optimization passes per case")
		scramble    = fs.Bool("scramble", true, "include port-scrambled cases (extraction must infer ports)")
		adversarial = fs.Int("adversarial", 10, "mix in a random-DAG robustness case every N cases (0 = off)")
		inject      = fs.Int("inject", 0, "flip XOR #((k-1) mod count) in every case; the campaign must fail everywhere (with -diagnose: number of trojans per case)")
		diagnose    = fs.Bool("diagnose", false, "fault-tolerance campaign: plant -inject trojans (default 1) in distinct cones, require P(x) recovery by consensus AND trojan localization")
		resume      = fs.Bool("resume", false, "crash-recovery campaign: hard-cancel each extraction at a random cone boundary, resume from its checkpoint, require exact P(x) and cone reuse")
		chaos       = fs.Bool("chaos", false, "chaos campaign: run each extraction through the lease-based shard scheduler while killing workers, expiring leases and duplicating/reordering submissions; require exact P(x) and zero double-counted cones")
		overload    = fs.Bool("overload", false, "overload campaign: attack a small gfred queue with a greedy batch-flooder and a deadline-abuser while a well-behaved tenant submits; require exact P(x) at bounded p99 and zero quota violations")
		obfuscate   = fs.Bool("obfuscate", false, "obfuscation campaign: logic-lock each multiplier with random key gates (xor/mux/opaque), require correct-key equivalence, exact key-input recovery by the semantic detector, and zero false positives on the clean design")
		ndjson      = fs.String("ndjson", "", "stream per-case telemetry events to this NDJSON file")
		repro       = fs.String("repro", "", "write a minimized .eqn repro per failure into this directory")
		selfcheck   = fs.Bool("selfcheck", false, "inject a reduction-network bug and verify it is caught and minimized")
		verbose     = fs.Bool("v", false, "print each case as it finishes")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *selfcheck {
		return runSelfcheck(stdout)
	}

	minM, maxM, err := parseRange(*mrange)
	if err != nil {
		return err
	}
	archList, err := parseArchs(*archs)
	if err != nil {
		return err
	}
	formatList, err := parseFormats(*formats)
	if err != nil {
		return err
	}
	// The mode flags select the campaign's one case kind.
	kind := diffcheck.KindMultiplier
	for _, mode := range []struct {
		on   bool
		kind diffcheck.Kind
	}{
		{*diagnose, diffcheck.KindDiagnose}, {*resume, diffcheck.KindResume}, {*chaos, diffcheck.KindChaos},
		{*overload, diffcheck.KindOverload}, {*obfuscate, diffcheck.KindObfuscate},
	} {
		if !mode.on {
			continue
		}
		if kind != diffcheck.KindMultiplier {
			return fmt.Errorf("-%s and -%s are exclusive campaign modes", kind, mode.kind)
		}
		kind = mode.kind
	}
	if *inject > 0 && kind != diffcheck.KindMultiplier && kind != diffcheck.KindDiagnose {
		return fmt.Errorf("-inject does not apply to a -%s campaign", kind)
	}

	var rec *obs.Recorder
	if *ndjson != "" {
		f, err := os.Create(*ndjson)
		if err != nil {
			return err
		}
		defer f.Close()
		rec = obs.NewRecorder(obs.NewNDJSONSink(f))
		defer rec.Close()
	}

	cfg := diffcheck.Config{
		N: *n, Seed: *seed, Workers: *workers, Timeout: *timeout, Kind: kind,
		MinM: minM, MaxM: maxM, Archs: archList, Formats: formatList,
		MaxOptPasses: *optPasses, Scramble: *scramble,
		Adversarial: *adversarial, Inject: *inject,
		Recorder: rec, ReproDir: *repro,
	}
	if *verbose {
		for i := 0; i < cfg.N; i++ {
			fmt.Fprintf(stdout, "case %3d: %s\n", i, diffcheck.NewCase(i, cfg).Label())
		}
	}
	sum, err := diffcheck.RunCampaign(cfg)
	if err != nil {
		return err
	}
	printSummary(stdout, sum)
	if kind == diffcheck.KindDiagnose {
		// Diagnosis mode: cases pass only if consensus recovered P(x) and
		// localization covered every planted gate, so plain failure counting
		// applies; the precision line above is the campaign's deliverable.
		if sum.Failed > 0 {
			return fmt.Errorf("%d of %d diagnosis cases failed", sum.Failed, sum.Cases)
		}
		return nil
	}
	if *inject > 0 {
		// Inverted mode: the campaign is healthy only if every multiplier
		// case failed (the harness caught the planted bug each time).
		if sum.Passed > sum.ByArch["adversarial"] {
			return fmt.Errorf("inject mode: %d corrupted cases escaped the oracles", sum.Passed-sum.ByArch["adversarial"])
		}
		fmt.Fprintln(stdout, "inject mode: every corrupted case was caught")
		return nil
	}
	if sum.Failed > 0 {
		return fmt.Errorf("%d of %d cases failed", sum.Failed, sum.Cases)
	}
	return nil
}

func printSummary(w io.Writer, sum *diffcheck.Summary) {
	fmt.Fprintf(w, "gffuzz: %d cases, %d passed, %d failed", sum.Cases, sum.Passed, sum.Failed)
	if sum.Panics > 0 {
		fmt.Fprintf(w, " (%d panics)", sum.Panics)
	}
	if sum.Timeouts > 0 {
		fmt.Fprintf(w, " (%d timeouts)", sum.Timeouts)
	}
	fmt.Fprintf(w, " in %v\n", sum.Duration.Round(time.Millisecond))
	for _, dim := range []struct {
		title string
		m     map[string]int
	}{{"by architecture", sum.ByArch}, {"by format", sum.ByFormat}} {
		keys := make([]string, 0, len(dim.m))
		for k := range dim.m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintf(w, "  %s:", dim.title)
		for _, k := range keys {
			fmt.Fprintf(w, " %s=%d", k, dim.m[k])
		}
		fmt.Fprintln(w)
	}
	if line := sum.Tally.Line(); line != "" {
		fmt.Fprintf(w, "  %s\n", line)
	}
	for i, f := range sum.Failures {
		fmt.Fprintf(w, "  FAIL case %d [%s] at %s: %s\n", f.Case.Index, f.Case.Label(), f.Stage, f.Err)
		if sum.Repros[i] != "" {
			fmt.Fprintf(w, "       repro: %s\n", sum.Repros[i])
		}
	}
}

// runSelfcheck proves the harness end to end: it corrupts one XOR in the
// reduction network of a GF(2^8) Mastrovito multiplier, demands that the
// differential oracles catch it, and that the minimizer shrinks the failure
// to a sub-50-gate repro that still deviates from the specification.
func runSelfcheck(w io.Writer) error {
	p8 := gf2poly.MustParse("x^8+x^4+x^3+x+1")
	n, err := gen.Mastrovito(8, p8)
	if err != nil {
		return err
	}
	nx := diffcheck.CountXor(n)
	bad, err := diffcheck.FlipXor(n, nx-1) // last XOR = reduction network
	if err != nil {
		return err
	}
	bd := diffcheck.CanonicalBinding(8)
	if err := diffcheck.SimOracle(bad, p8, bd, 4, 1); err == nil {
		return fmt.Errorf("selfcheck: simulation oracle MISSED the injected bug")
	}
	fmt.Fprintf(w, "selfcheck: injected bug caught by the simulation oracle\n")
	min, err := diffcheck.Minimize(bad, diffcheck.MinimizeOptions{P: p8, Binding: bd, Seed: 1})
	if err != nil {
		return fmt.Errorf("selfcheck: minimize: %w", err)
	}
	if min.NumGates() >= 50 {
		return fmt.Errorf("selfcheck: repro has %d gates, want < 50", min.NumGates())
	}
	dev, err := diffcheck.Deviations(min, p8, bd, 1)
	if err != nil {
		return err
	}
	if len(dev) == 0 {
		return fmt.Errorf("selfcheck: minimized repro no longer deviates")
	}
	fmt.Fprintf(w, "selfcheck: minimized %d-gate failure to a %d-gate repro (output bit %d)\n",
		bad.NumGates(), min.NumGates(), dev[0])
	return nil
}

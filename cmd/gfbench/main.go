// Command gfbench regenerates the paper's evaluation — Tables I–IV and
// Figure 4 — printing measured numbers next to the published ones.
//
// Usage:
//
//	gfbench                      # everything at the paper's sizes
//	gfbench -table 1 -m 64,96    # Table I at selected sizes
//	gfbench -table 2             # Table II (Montgomery; the slow one)
//	gfbench -figure4 fig4.csv    # Figure 4 per-bit runtimes as CSV
//	gfbench -table 4 -m233 33    # scaled-down Table IV at m=33
//
// Absolute runtimes are not comparable to the paper's C++ on a 2012 Xeon;
// the shapes (rankings, growth, anomalies) are what reproduce. See
// EXPERIMENTS.md.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"github.com/galoisfield/gfre/internal/eval"
)

func parseSizes(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad size %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "gfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("gfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		table   = fs.String("table", "all", "which table to run: 1, 2, 3, 4, none or all")
		sizes   = fs.String("m", "", "comma-separated bit widths (default: the paper's sizes)")
		m233    = fs.Int("m233", 233, "field size for Table IV / Figure 4 (233 = the paper's)")
		fig4    = fs.String("figure4", "", "write Figure 4 per-bit runtime series to this CSV file")
		noFig   = fs.Bool("skip-figure4", false, "skip Figure 4 when running everything")
		arch    = fs.Int("archcmp", 0, "also run the architecture-comparison extension at this field size (0 = off)")
		jsonOut = fs.Bool("json", false, "emit tables as JSON instead of text")
		timeout = fs.Duration("timeout", 0, "wall-clock budget for the whole run (0 = none); rows abort with a resource error past it")
		coneTO  = fs.Duration("cone-timeout", 0, "per-output-cone rewriting deadline (0 = none)")
		budget  = fs.Int("budget", 0, "per-cone term budget; cones abort with ErrBudgetExceeded past it (0 = none)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	szs, err := parseSizes(*sizes)
	if err != nil {
		return err
	}
	var ropts []eval.RunOption
	if *timeout > 0 {
		ctx, cancel := context.WithTimeout(context.Background(), *timeout)
		defer cancel()
		ropts = append(ropts, eval.WithContext(ctx))
	}
	if *coneTO > 0 {
		ropts = append(ropts, eval.WithConeDeadline(*coneTO))
	}
	if *budget > 0 {
		ropts = append(ropts, eval.WithBudget(*budget))
	}
	want := func(t string) bool { return *table == "all" || *table == t }
	emit := func(title string, rows []eval.Row) error {
		if *jsonOut {
			fmt.Fprintf(stdout, "// %s\n", title)
			if err := eval.WriteJSON(stdout, rows); err != nil {
				return err
			}
		} else {
			eval.WriteTable(stdout, title, rows)
			fmt.Fprintln(stdout)
		}
		return nil
	}

	if want("1") {
		rows, err := eval.TableI(szs, ropts...)
		if err != nil {
			return err
		}
		if err := emit("Table I: Mastrovito multipliers, NIST-recommended P(x)", rows); err != nil {
			return err
		}
	}
	if want("2") {
		rows, err := eval.TableII(szs, ropts...)
		if err != nil {
			return err
		}
		if err := emit("Table II: Montgomery multipliers (flattened), NIST-recommended P(x)", rows); err != nil {
			return err
		}
	}
	if want("3") {
		use := szs
		if use == nil {
			use = eval.TableIIISizes
		}
		rows, err := eval.TableIII(use, ropts...)
		if err != nil {
			return err
		}
		if err := emit("Table III: synthesized (optimized + mapped) multipliers", rows); err != nil {
			return err
		}
	}
	if want("4") {
		rows, err := eval.TableIV(*m233, ropts...)
		if err != nil {
			return err
		}
		if err := emit(fmt.Sprintf("Table IV: GF(2^%d) Mastrovito, architecture-optimal P(x)", *m233), rows); err != nil {
			return err
		}
	}
	if *arch > 0 {
		rows, err := eval.ArchComparison(*arch, ropts...)
		if err != nil {
			return err
		}
		if err := emit(fmt.Sprintf("Extension: extraction cost across architectures, GF(2^%d)", *arch), rows); err != nil {
			return err
		}
	}
	if (*table == "all" && !*noFig) || *fig4 != "" {
		series, err := eval.Figure4(*m233, ropts...)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "Figure 4: per-output-bit extraction runtime, GF(2^%d) (totals)\n", *m233)
		for _, s := range series {
			fmt.Fprintf(stdout, "  %-18s %-34v total %v\n", s.Arch, s.P, s.TotalRuntime())
		}
		if *fig4 != "" {
			f, err := os.Create(*fig4)
			if err != nil {
				return err
			}
			eval.WriteFigure4CSV(f, series)
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "  per-bit series written to %s\n", *fig4)
		}
	}
	return nil
}

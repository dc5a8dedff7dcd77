package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseRange(t *testing.T) {
	if lo, hi, err := parseRange("4-16"); err != nil || lo != 4 || hi != 16 {
		t.Errorf("4-16 = %d, %d, %v", lo, hi, err)
	}
	if lo, hi, err := parseRange("8"); err != nil || lo != 8 || hi != 8 {
		t.Errorf("8 = %d, %d, %v", lo, hi, err)
	}
	for _, bad := range []string{"", "a-b", "4-", "x"} {
		if _, _, err := parseRange(bad); err == nil {
			t.Errorf("parseRange(%q) should fail", bad)
		}
	}
}

func TestParseArchAndFormatValidation(t *testing.T) {
	if _, err := parseArchs("mastrovito, montgomery"); err != nil {
		t.Errorf("valid archs rejected: %v", err)
	}
	if _, err := parseArchs("booth"); err == nil {
		t.Error("unknown arch accepted")
	}
	if _, err := parseFormats("eqn,blif"); err != nil {
		t.Errorf("valid formats rejected: %v", err)
	}
	if _, err := parseFormats("edif"); err == nil {
		t.Error("unknown format accepted")
	}
}

func TestRunSmallCampaign(t *testing.T) {
	var out, errOut bytes.Buffer
	err := run([]string{"-n", "12", "-seed", "7", "-m", "3-8", "-workers", "4"}, &out, &errOut)
	if err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "12 passed, 0 failed") {
		t.Errorf("unexpected summary:\n%s", out.String())
	}
}

func TestRunInjectModeCatchesEverything(t *testing.T) {
	dir := t.TempDir()
	var out, errOut bytes.Buffer
	err := run([]string{"-n", "6", "-seed", "3", "-m", "4-8", "-adversarial", "0",
		"-inject", "5", "-repro", dir}, &out, &errOut)
	if err != nil {
		t.Fatalf("inject campaign should exit clean when all bugs are caught: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "every corrupted case was caught") {
		t.Errorf("missing inject verdict:\n%s", out.String())
	}
	repros, _ := filepath.Glob(filepath.Join(dir, "repro_case*.eqn"))
	if len(repros) != 6 {
		t.Errorf("want 6 repro files, got %d", len(repros))
	}
}

func TestRunDiagnoseCampaign(t *testing.T) {
	path := filepath.Join(t.TempDir(), "diag.ndjson")
	var out, errOut bytes.Buffer
	err := run([]string{"-n", "5", "-seed", "9", "-m", "5-9", "-adversarial", "0",
		"-diagnose", "-inject", "1", "-ndjson", path}, &out, &errOut)
	if err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "localization: 5/5 cases fully localized (precision 100%)") {
		t.Errorf("missing localization precision line:\n%s", out.String())
	}
	// Per-case localization telemetry must land in the NDJSON stream.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	locEvents := 0
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		var e struct {
			Event string           `json:"ev"`
			V     map[string]int64 `json:"v"`
		}
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if e.Event == "case_pass" {
			if hit, ok := e.V["loc_hit"]; ok {
				locEvents++
				if hit != 1 {
					t.Errorf("case_pass with loc_hit = %d, want 1", hit)
				}
				if rank, ok := e.V["loc_rank"]; !ok || rank < 0 {
					t.Errorf("case_pass missing usable loc_rank (v = %v)", e.V)
				}
			}
		}
	}
	if locEvents != 5 {
		t.Errorf("found %d case_pass events with localization fields, want 5", locEvents)
	}
}

func TestRunNDJSONTelemetry(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.ndjson")
	var out, errOut bytes.Buffer
	if err := run([]string{"-n", "4", "-seed", "2", "-m", "3-5", "-ndjson", path}, &out, &errOut); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events := map[string]int{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var e struct {
			Event string `json:"ev"`
		}
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		events[e.Event]++
	}
	if events["case_start"] != 4 || events["case_pass"] != 4 {
		t.Errorf("event counts = %v, want 4 case_start and 4 case_pass", events)
	}
}

func TestRunSelfcheck(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run([]string{"-selfcheck"}, &out, &errOut); err != nil {
		t.Fatalf("selfcheck: %v\n%s", err, out.String())
	}
	for _, want := range []string{"caught by the simulation oracle", "gate repro"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run([]string{"-m", "nope"}, &out, &errOut); err == nil {
		t.Error("bad -m accepted")
	}
	if err := run([]string{"-arch", "booth"}, &out, &errOut); err == nil {
		t.Error("bad -arch accepted")
	}
	// Campaign modes are exclusive, and -inject applies only to multiplier and
	// diagnose campaigns.
	for _, args := range [][]string{
		{"-chaos", "-resume"},
		{"-diagnose", "-obfuscate"},
		{"-overload", "-chaos", "-resume"},
		{"-resume", "-inject", "1"},
		{"-chaos", "-inject", "1"},
		{"-overload", "-inject", "1"},
		{"-obfuscate", "-inject", "1"},
	} {
		if err := run(append(args, "-n", "1"), &out, &errOut); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
}

func TestRunResumeCampaign(t *testing.T) {
	var out, errOut bytes.Buffer
	err := run([]string{"-resume", "-n", "6", "-seed", "3", "-m", "4-8", "-workers", "4"}, &out, &errOut)
	if err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "6 passed, 0 failed") {
		t.Errorf("unexpected summary:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "resume:") || !strings.Contains(out.String(), "cones reused") {
		t.Errorf("summary missing the resume line:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "resume=6") {
		t.Errorf("by-architecture tally missing resume cases:\n%s", out.String())
	}
}

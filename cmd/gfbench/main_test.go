package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseSizes(t *testing.T) {
	got, err := parseSizes("64, 96,163")
	if err != nil || len(got) != 3 || got[0] != 64 || got[2] != 163 {
		t.Errorf("parseSizes = %v, %v", got, err)
	}
	if got, err := parseSizes(""); err != nil || got != nil {
		t.Errorf("empty = %v, %v", got, err)
	}
	if _, err := parseSizes("64,abc"); err == nil {
		t.Error("bad size should fail")
	}
}

func TestRunTableISmall(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run([]string{"-table", "1", "-m", "64", "-skip-figure4"}, &out, &errOut); err != nil {
		t.Fatalf("%v\n%s", err, errOut.String())
	}
	for _, want := range []string{"Table I", "Mastrovito", "21814", "9.2"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunJSONOutput(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run([]string{"-table", "2", "-m", "64", "-json", "-skip-figure4"}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	// First line is the title comment, the rest is a JSON array.
	body := out.String()
	idx := strings.IndexByte(body, '\n')
	var rows []map[string]interface{}
	if err := json.Unmarshal([]byte(body[idx:]), &rows); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	if len(rows) != 1 || rows[0]["label"] != "Montgomery" || rows[0]["ok"] != true {
		t.Errorf("rows = %v", rows)
	}
}

func TestRunScaledTableIVAndFigure4(t *testing.T) {
	csv := filepath.Join(t.TempDir(), "fig4.csv")
	var out, errOut bytes.Buffer
	if err := run([]string{"-table", "4", "-m233", "17", "-figure4", csv}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "trinomial") || !strings.Contains(out.String(), "pentanomial") {
		t.Errorf("scaled Table IV missing rows:\n%s", out.String())
	}
	data, err := os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 18 || !strings.HasPrefix(lines[0], "bit,") {
		t.Errorf("CSV malformed: %d lines, header %q", len(lines), lines[0])
	}
}

func TestRunArchComparison(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run([]string{"-table", "none", "-skip-figure4", "-archcmp", "16"}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Karatsuba", "Montgomery", "DigitSerial"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("archcmp missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunGovernedFlags(t *testing.T) {
	// Generous limits must not disturb a clean Table I row.
	var out, errOut bytes.Buffer
	err := run([]string{"-table", "1", "-m", "64", "-skip-figure4",
		"-timeout", "10m", "-cone-timeout", "5m", "-budget", "100000000"}, &out, &errOut)
	if err != nil {
		t.Fatalf("%v\n%s", err, errOut.String())
	}
	if !strings.Contains(out.String(), "Table I") {
		t.Errorf("governed run lost its output:\n%s", out.String())
	}

	// A starvation budget must abort the row with a typed resource error,
	// reported in the row rather than crashing the whole sweep.
	out.Reset()
	errOut.Reset()
	err = run([]string{"-table", "1", "-m", "64", "-json", "-skip-figure4",
		"-budget", "8"}, &out, &errOut)
	if err != nil {
		t.Fatalf("%v\n%s", err, errOut.String())
	}
	body := out.String()
	var rows []map[string]interface{}
	if err := json.Unmarshal([]byte(body[strings.IndexByte(body, '\n'):]), &rows); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	if len(rows) != 1 || rows[0]["ok"] == true {
		t.Fatalf("starved row should not be ok: %v", rows)
	}
	if errText, _ := rows[0]["error"].(string); !strings.Contains(errText, "budget") {
		t.Errorf("row error %q does not mention the budget", errText)
	}
}

func TestRunErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-m", "notanumber"}, &buf, &buf); err == nil {
		t.Error("bad -m should fail")
	}
	if err := run([]string{"-table", "1", "-m", "100", "-skip-figure4"}, &buf, &buf); err == nil {
		t.Error("non-NIST size should fail")
	}
}

package main

import (
	"context"
	"errors"
	"strings"
	"testing"
)

func runOK(t *testing.T, args ...string) string {
	t.Helper()
	var sb strings.Builder
	if err := run(args, &sb); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	return sb.String()
}

func TestFig3CSV(t *testing.T) {
	out := runOK(t, "-fig", "3", "-format", "csv", "-points", "5")
	if !strings.Contains(out, "x,Small,Medium,Large") {
		t.Errorf("fig3 CSV header missing:\n%s", out)
	}
	if !strings.Contains(out, "0.999,") {
		t.Error("fig3 CSV should start at A_C = 0.999")
	}
}

func TestFig4ASCII(t *testing.T) {
	out := runOK(t, "-fig", "4", "-points", "7")
	for _, want := range []string{"fig4", "a = 1S", "d = 2L"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig4 ASCII missing %q", want)
		}
	}
}

func TestFig5CSV(t *testing.T) {
	out := runOK(t, "-fig", "5", "-format", "csv", "-points", "3")
	if !strings.Contains(out, "x,1S,2S,1L,2L") {
		t.Errorf("fig5 CSV header missing:\n%s", out)
	}
}

func TestAllFigures(t *testing.T) {
	out := runOK(t, "-fig", "all", "-points", "3")
	for _, want := range []string{"fig3", "fig4", "fig5"} {
		if !strings.Contains(out, want) {
			t.Errorf("all-figures output missing %q", want)
		}
	}
}

func TestTablesAndAblations(t *testing.T) {
	out := runOK(t, "-tables", "-ablations", "-extensions")
	for _, want := range []string{
		"Table I", "Table II", "Table III",
		"SW-centric availability at default parameters",
		"rack separation", "supervisor requirement penalty",
		"outage frequency and duration", "weak links",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestValidationFlag(t *testing.T) {
	if testing.Short() {
		t.Skip("validation run skipped in -short mode")
	}
	out := runOK(t, "-validate", "-reps", "2", "-horizon", "50000")
	if !strings.Contains(out, "Validation") || !strings.Contains(out, "1S") {
		t.Errorf("validation output unexpected:\n%s", out)
	}
}

func TestUnknownFigure(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-fig", "9"}, &sb); err == nil {
		t.Error("unknown figure accepted")
	}
	if err := run([]string{"-nope"}, &sb); err == nil {
		t.Error("unknown flag accepted")
	}
}

// TestFlagValuesAreErrors: a flag value the study builders refuse comes
// back as an error naming it, never as a panic.
func TestFlagValuesAreErrors(t *testing.T) {
	for _, c := range []struct{ args, want string }{
		{"-placement -controllers 4", "odd controller count, got 4"},
		{"-validate -reps 0", "-reps 0"},
		{"-validate -reps 1", "-reps 1"},
		{"-validate -horizon -5", "Horizon = -5"},
		{"-validate -ci-target 1e-3 -min-reps 10 -max-reps 5", "MaxReps 5 < MinReps 10"},
	} {
		var sb strings.Builder
		err := run(strings.Fields(c.args), &sb)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("figures %s: error %v, want one naming %q", c.args, err, c.want)
		}
	}
}

// TestInterruptedStudy: a cancelled context (the SIGINT path) still prints
// the table of the study in flight, then stops instead of starting the
// next one.
func TestInterruptedStudy(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var sb strings.Builder
	err := runContext(ctx, []string{"-validate", "-placement"}, &sb)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run returned %v, want context.Canceled", err)
	}
	out := sb.String()
	if !strings.Contains(out, "Validation") {
		t.Errorf("in-flight study's table missing in:\n%s", out)
	}
	for _, later := range []string{"outage durations", "placement ranking"} {
		if strings.Contains(out, later) {
			t.Errorf("study %q started after the interrupt:\n%s", later, out)
		}
	}
}

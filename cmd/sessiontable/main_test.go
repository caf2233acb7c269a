package main

import (
	"context"
	"errors"
	"strings"
	"testing"
)

func TestRunDefaultsSmall(t *testing.T) {
	if err := run([]string{"-s", "2", "-n", "2", "-seeds", "1"}); err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestRunCSV(t *testing.T) {
	if err := run([]string{"-s", "2", "-n", "2", "-seeds", "1", "-csv"}); err != nil {
		t.Fatalf("run -csv: %v", err)
	}
}

func TestRunBadFlag(t *testing.T) {
	if err := run([]string{"-definitely-not-a-flag"}); err == nil {
		t.Error("bad flag accepted")
	}
}

// TestRunRejectsZeroC1: the semi-synchronous and sporadic bounds divide by
// c1, so -c1 0 is an error on both output paths rather than a table run at
// the default c1.
func TestRunRejectsZeroC1(t *testing.T) {
	for _, extra := range [][]string{nil, {"-json"}} {
		args := append([]string{"-s", "2", "-n", "2", "-seeds", "1", "-c1", "0"}, extra...)
		if err := run(args); err == nil || !strings.Contains(err.Error(), "c1 must be >= 1, got 0") {
			t.Errorf("run %v: err = %v, want the c1 error", args, err)
		}
	}
}

// TestRunJSONHonoursTimeout: -timeout bounds the facade path too.
func TestRunJSONHonoursTimeout(t *testing.T) {
	err := run([]string{"-s", "2", "-n", "2", "-seeds", "1", "-json", "-timeout", "1ns"})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("-json with an expired -timeout: err = %v, want the deadline", err)
	}
}

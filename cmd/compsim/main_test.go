package main

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"comp/internal/cli"
	"comp/internal/runtime"
	"comp/internal/vm"
)

// TestExecFlagTable pins compsim's -exec contract through the shared
// helper: vm and interp are accepted; "columnar" is not a mode any more
// and fails like any unknown name, with exit code 2 and a one-line usage
// error that starts with the command's name. cli.TestSetExec holds the
// full table.
func TestExecFlagTable(t *testing.T) {
	defer vm.SetExecMode(vm.ExecVM)
	for _, tc := range []struct {
		mode string
		code int
	}{{"vm", 0}, {"interp", 0}, {"columnar", 2}, {"Columnar", 2}} {
		var errb bytes.Buffer
		if code := cli.SetExec("compsim", tc.mode, &errb); code != tc.code {
			t.Errorf("-exec %q: exit %d, want %d", tc.mode, code, tc.code)
		}
		out := errb.String()
		if tc.code == 0 && out != "" {
			t.Errorf("-exec %q: stderr %q, want silent success", tc.mode, out)
		}
		if tc.code != 0 && (!strings.HasPrefix(out, "compsim: unknown exec mode") || strings.Count(out, "\n") != 1) {
			t.Errorf("-exec %q: want a one-line \"compsim: unknown exec mode\" error, got %q", tc.mode, out)
		}
	}
}

// TestResolveBlocks pins the -blocks flag: an integer passes through,
// "auto" climbs from the model's seed (64, nearest rung 50) down to 10 on
// examples/blackscholes.c, anything else is a usage error.
func TestResolveBlocks(t *testing.T) {
	raw, err := os.ReadFile("../../examples/blackscholes.c")
	if err != nil {
		t.Fatal(err)
	}
	src, cfg := string(raw), runtime.DefaultConfig()
	if n, err := resolveBlocks("auto", src, cfg); err != nil || n != 10 {
		t.Errorf("resolveBlocks(auto) = %d, %v; want 10", n, err)
	}
	if n, err := resolveBlocks("7", src, cfg); err != nil || n != 7 {
		t.Errorf("resolveBlocks(7) = %d, %v; want 7", n, err)
	}
	if _, err := resolveBlocks("x", src, cfg); err == nil || !strings.Contains(err.Error(), `must be an integer or "auto"`) {
		t.Errorf("resolveBlocks(x) error = %v, want the integer-or-auto usage error", err)
	}
}

package main

import (
	"bytes"
	"strings"
	"testing"

	"comp/internal/cli"
	"comp/internal/vm"
)

// TestExecFlagTable pins compc's -exec contract through the shared
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
		if code := cli.SetExec("compc", tc.mode, &errb); code != tc.code {
			t.Errorf("-exec %q: exit %d, want %d", tc.mode, code, tc.code)
		}
		out := errb.String()
		if tc.code == 0 && out != "" {
			t.Errorf("-exec %q: stderr %q, want silent success", tc.mode, out)
		}
		if tc.code != 0 && (!strings.HasPrefix(out, "compc: unknown exec mode") || strings.Count(out, "\n") != 1) {
			t.Errorf("-exec %q: want a one-line \"compc: unknown exec mode\" error, got %q", tc.mode, out)
		}
	}
}

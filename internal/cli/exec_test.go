package cli

import (
	"bytes"
	"flag"
	"strings"
	"testing"

	"comp/internal/vm"
)

// TestSetExec pins the -exec contract every command shares: the two
// engine names are accepted silently, anything else — "columnar"
// included, which is no longer a mode — is rejected with exit code 2 and
// a one-line usage error that names the command and both valid modes.
func TestSetExec(t *testing.T) {
	defer vm.SetExecMode(vm.ExecVM)
	cases := []struct {
		mode string
		ok   bool
	}{
		{"vm", true},
		{"interp", true},
		{"columnar", false},
		{"", false},
		{"VM", false},
		{"vm ", false},
		{"jit", false},
		{"vm,interp", false},
	}
	for _, tc := range cases {
		var errb bytes.Buffer
		code := SetExec("compx", tc.mode, &errb)
		if tc.ok {
			if code != 0 || errb.Len() != 0 {
				t.Errorf("-exec %q: exit %d, stderr %q; want silent success", tc.mode, code, errb.String())
			}
			if got := vm.ExecMode(); got != tc.mode {
				t.Errorf("-exec %q: process default is %q", tc.mode, got)
			}
			continue
		}
		if code != 2 {
			t.Errorf("-exec %q: exit %d, want 2", tc.mode, code)
		}
		out := errb.String()
		if strings.Count(out, "\n") != 1 {
			t.Errorf("-exec %q: usage error is not one line:\n%s", tc.mode, out)
		}
		for _, want := range []string{"compx: ", "unknown exec mode", "vm or interp"} {
			if !strings.Contains(out, want) {
				t.Errorf("-exec %q: usage error lacks %q: %s", tc.mode, want, out)
			}
		}
	}
}

// TestExecFlag pins the flag's name, default and help text.
func TestExecFlag(t *testing.T) {
	fs := flag.NewFlagSet("compx", flag.ContinueOnError)
	mode := ExecFlag(fs)
	if *mode != vm.ExecVM {
		t.Errorf("default -exec %q, want %q", *mode, vm.ExecVM)
	}
	if f := fs.Lookup("exec"); f == nil || !strings.HasSuffix(f.Usage, "vm or interp") {
		t.Errorf("-exec help text %+v does not end in \"vm or interp\"", f)
	}
	if err := fs.Parse([]string{"-exec", "interp"}); err != nil || *mode != vm.ExecInterp {
		t.Errorf("-exec interp parsed to %q (err %v)", *mode, err)
	}
}

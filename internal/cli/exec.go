// Package cli holds the flag handling the commands share.
package cli

import (
	"flag"
	"fmt"
	"io"

	"comp/internal/vm"
)

// ExecFlag registers the -exec flag on fs: the MiniC execution engine,
// the VM by default.
func ExecFlag(fs *flag.FlagSet) *string {
	return fs.String("exec", vm.ExecVM, "MiniC execution engine: vm or interp")
}

// SetExec installs the engine an -exec value names as the process
// default and returns 0. An unknown mode instead writes a one-line usage
// error naming the valid modes, prefixed with the command's name, to
// stderr and returns the usage exit code 2.
func SetExec(cmd, mode string, stderr io.Writer) int {
	if err := vm.SetExecMode(mode); err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", cmd, err)
		return 2
	}
	return 0
}

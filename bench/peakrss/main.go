// Command peakrss runs a command on its own standard streams, writes
// the command's peak resident set size in KB to OUTFILE, and exits with
// the command's exit code:
//
//	peakrss OUTFILE COMMAND [ARG...]
//
// The harness cannot read that number from its own children: Go starts
// a child with vfork, so the child shares the harness's memory until it
// execs, and at exec the kernel carries the peak resident set of that
// shared memory into the child's ru_maxrss. Every child of a 13 MB
// harness reported at least 13 MB. This program stays at about 2 MB,
// below the smallest process it measures.
package main

import (
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"syscall"
)

func main() {
	if len(os.Args) < 3 {
		fmt.Fprintln(os.Stderr, "usage: peakrss OUTFILE COMMAND [ARG...]")
		os.Exit(2)
	}
	cmd := exec.Command(os.Args[2], os.Args[3:]...)
	cmd.Stdin, cmd.Stdout, cmd.Stderr = os.Stdin, os.Stdout, os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	err := cmd.Run()
	if cmd.ProcessState == nil {
		fmt.Fprintln(os.Stderr, "peakrss:", err)
		os.Exit(2)
	}
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		fmt.Fprintln(os.Stderr, "peakrss: no rusage")
		os.Exit(2)
	}
	if err := os.WriteFile(os.Args[1], []byte(strconv.FormatInt(ru.Maxrss, 10)), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "peakrss:", err)
		os.Exit(2)
	}
	os.Exit(cmd.ProcessState.ExitCode())
}

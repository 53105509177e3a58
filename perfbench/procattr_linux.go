package main

import "syscall"

// childAttr makes a child process die with the benchmark, so servers are
// never left behind even if the benchmark itself is killed.
func childAttr() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

//go:build linux

package shmem

import "syscall"

// osYield gives the calling thread's CPU to any other runnable thread
// (sched_yield); with none waiting it returns at once.
func osYield() { syscall.Syscall(syscall.SYS_SCHED_YIELD, 0, 0, 0) }

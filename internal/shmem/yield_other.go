//go:build !linux

package shmem

// osYield does nothing off Linux, where no ring is shared with another
// process.
func osYield() {}

//go:build !linux

package orb

import "testing"

// The kernel zero-copy data plane needs MSG_ZEROCOPY, the socket error
// queue, and sendfile-to-socket, so its ORB integration tests only run
// on linux. These stubs record why; the portable fallback contract is
// covered in kzc_fallback_test.go.

const kzcSkip = "kernel zero-copy data plane requires linux (MSG_ZEROCOPY + MSG_ERRQUEUE + sendfile)"

func TestKzcDepositEndToEnd(t *testing.T)                  { t.Skip(kzcSkip) }
func TestKzcReplyPath(t *testing.T)                        { t.Skip(kzcSkip) }
func TestKzcFileDeposit(t *testing.T)                      { t.Skip(kzcSkip) }
func TestChaosKzcDroppedCompletionLeaseSweep(t *testing.T) { t.Skip(kzcSkip) }
func TestChaosKzcCopiedDegradeFallback(t *testing.T)       { t.Skip(kzcSkip) }
func TestChaosKzcResetMidDeposit(t *testing.T)             { t.Skip(kzcSkip) }
func TestKzcInvokeAllocsGate(t *testing.T)                 { t.Skip(kzcSkip) }

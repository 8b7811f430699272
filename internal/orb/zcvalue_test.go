package orb

import (
	"errors"
	"testing"
	"time"

	"zcorba/internal/zcbuf"
)

// wantSystemException fails t unless err is the named system exception
// with the given completion status.
func wantSystemException(t *testing.T, err error, name string, completed CompletionStatus) {
	t.Helper()
	var se *SystemException
	if !errors.As(err, &se) || se.Name != name || se.Completed != completed {
		t.Fatalf("got %v, want %s with completion %v", err, name, completed)
	}
}

// TestZCValueValidation: a typed nil where a ZC octet stream belongs is
// a MARSHAL error, never a crash, on both planes and both marshal
// paths. A client argument fails the call before anything is sent
// (CompletedNo). A servant's nil result value gets a CompletedYes
// MARSHAL reply, its other reply buffers are still released, and the
// server keeps serving. A wrong argument count is BAD_PARAM.
func TestZCValueValidation(t *testing.T) {
	for _, plane := range []struct {
		name string
		mk   func(*testing.T, bool) *pair
	}{{"tcp", tcpPair}, {"inproc", inprocPair}} {
		for _, zc := range []bool{true, false} {
			name := plane.name + "/std"
			if zc {
				name = plane.name + "/zc"
			}
			t.Run(name, func(t *testing.T) {
				p := plane.mk(t, zc)
				buf := zcbuf.Wrap(pattern(4096))
				put2 := storeIface.Ops["put2"]
				for _, bad := range []any{(*zcbuf.Buffer)(nil), (*zcbuf.File)(nil)} {
					_, _, err := p.ref.Invoke(put2, []any{buf, bad})
					wantSystemException(t, err, "MARSHAL", CompletedNo)
				}
				_, _, err := p.ref.Invoke(put2, []any{buf})
				wantSystemException(t, err, "BAD_PARAM", CompletedNo)
				if n := p.server.Stats().RequestsServed.Load(); n != 0 {
					t.Fatalf("server served %d requests with invalid arguments", n)
				}

				_, _, err = p.ref.Invoke(storeIface.Ops["half_nil"], nil)
				wantSystemException(t, err, "MARSHAL", CompletedYes)
				p.servant.mu.Lock()
				half := p.servant.lastHalf
				p.servant.mu.Unlock()
				// The server releases it just after sending the reply.
				for deadline := time.Now().Add(5 * time.Second); half.Refs() != 0; {
					if time.Now().After(deadline) {
						t.Fatalf("servant's result buffer refs = %d after the MARSHAL reply, want 0", half.Refs())
					}
					time.Sleep(time.Millisecond)
				}

				res, _, err := p.ref.Invoke(put2, []any{buf, buf})
				if err != nil || res.(uint32) != 2*checksum(buf.Bytes()) {
					t.Fatalf("put2 after the MARSHAL replies: res=%v err=%v", res, err)
				}
			})
		}
	}
}

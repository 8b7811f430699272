package orb

import (
	"errors"
	"testing"

	"zcorba/internal/ior"
	"zcorba/internal/transport"
	"zcorba/internal/zcbuf"
)

// forwarder redirects every invocation to another object reference.
type forwarder struct {
	to ior.IOR
}

func (f forwarder) Interface() *Interface { return storeIface }
func (f forwarder) Invoke(op string, args []any) (any, []any, error) {
	return nil, nil, &LocationForward{To: f.to}
}

func TestLocationForwardTransparentRetry(t *testing.T) {
	// The real servant lives on server B; server A forwards to it.
	serverB, err := New(Options{Transport: &transport.TCP{}, ZeroCopy: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(serverB.Shutdown)
	target := newStoreServant()
	realRef, err := serverB.Activate("store", target)
	if err != nil {
		t.Fatal(err)
	}

	serverA, err := New(Options{Transport: &transport.TCP{}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(serverA.Shutdown)
	fwdRef, err := serverA.Activate("store", forwarder{to: realRef.IOR()})
	if err != nil {
		t.Fatal(err)
	}

	client, err := New(Options{Transport: &transport.TCP{}, ZeroCopy: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(client.Shutdown)
	cref, err := client.StringToObject(fwdRef.String())
	if err != nil {
		t.Fatal(err)
	}
	data := pattern(200000)
	res, _, err := cref.Invoke(storeIface.Ops["put"], []any{data})
	if err != nil {
		t.Fatalf("forwarded put: %v", err)
	}
	if res.(uint32) != checksum(data) {
		t.Fatal("checksum mismatch through forward")
	}
	// The real server did the work (and, since both client and B are
	// zero-copy, the retried leg used direct deposit).
	if serverB.Stats().RequestsServed.Load() == 0 {
		t.Fatal("target server never invoked")
	}
	if serverB.Stats().DepositsReceived.Load() != 1 {
		t.Fatalf("forwarded leg used %d deposits",
			serverB.Stats().DepositsReceived.Load())
	}

	// An asynchronous call borrows its arguments until Wait, which
	// follows the forward and re-sends both deposits to the target.
	var pl zcbuf.Pool
	bufs, want := gatherBufs(t, &pl, 2, 128<<10)
	defer releaseBufs(bufs)
	res, _, err = cref.InvokeAsync(storeIface.Ops["put2"], []any{bufs[0], bufs[1]}).Wait()
	if err != nil {
		t.Fatalf("forwarded async put2: %v", err)
	}
	target.mu.Lock()
	got := target.lastSum
	target.mu.Unlock()
	if res.(uint32) != want || got != want {
		t.Fatalf("forwarded async put2: reply %v, target checksum %d, want %d", res, got, want)
	}
	if n := serverB.Stats().DepositsReceived.Load(); n != 3 {
		t.Fatalf("target received %d deposits, want 3", n)
	}
}

func TestLocationForwardLoopBounded(t *testing.T) {
	// A servant forwarding to itself must fail with TRANSIENT, not
	// loop forever.
	server, err := New(Options{Transport: &transport.TCP{}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(server.Shutdown)
	self := server.refForLocked("loop", storeIface.RepoID)
	if _, err := server.Activate("loop", forwarder{to: self.IOR()}); err != nil {
		t.Fatal(err)
	}
	client, err := New(Options{Transport: &transport.TCP{}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(client.Shutdown)
	cref, err := client.StringToObject(self.String())
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = cref.Invoke(storeIface.Ops["put_std"], []any{[]byte{1}})
	var se *SystemException
	if !errors.As(err, &se) || se.Name != "TRANSIENT" {
		t.Fatalf("want TRANSIENT after forward loop, got %v", err)
	}
}

func TestCollocatedLocationForward(t *testing.T) {
	// A collocated call hitting a forwarder follows the forward to a
	// remote server.
	serverB, err := New(Options{Transport: &transport.TCP{}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(serverB.Shutdown)
	realRef, err := serverB.Activate("store", newStoreServant())
	if err != nil {
		t.Fatal(err)
	}
	local, err := New(Options{Transport: &transport.TCP{}, Collocation: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(local.Shutdown)
	fwdRef, err := local.Activate("store", forwarder{to: realRef.IOR()})
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := fwdRef.Invoke(storeIface.Ops["put_std"], []any{[]byte{1, 2, 3}})
	if err != nil {
		t.Fatalf("collocated forward: %v", err)
	}
	if res.(uint32) != 6 {
		t.Fatalf("result %v", res)
	}
}

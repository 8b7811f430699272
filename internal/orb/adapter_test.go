package orb

import (
	"strings"
	"testing"

	"zcorba/internal/ior"
	"zcorba/internal/transport"
)

func TestActivateAutoUniqueKeys(t *testing.T) {
	o, err := New(Options{Transport: &transport.InProc{}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(o.Shutdown)
	r1, err := o.ActivateAuto(newStoreServant())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := o.ActivateAuto(newStoreServant())
	if err != nil {
		t.Fatal(err)
	}
	p1, _ := r1.IOR().IIOP()
	p2, _ := r2.IOR().IIOP()
	if string(p1.ObjectKey) == string(p2.ObjectKey) {
		t.Fatalf("duplicate auto keys %q", p1.ObjectKey)
	}
	if !strings.HasPrefix(string(p1.ObjectKey), "auto/Store/") {
		t.Fatalf("key %q", p1.ObjectKey)
	}
}

func TestActivateWithComponents(t *testing.T) {
	o, err := New(Options{Transport: &transport.InProc{}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(o.Shutdown)
	bc := ior.ZCShmBcast{Arch: "amd64/little/go", HostID: "hid", Path: "bcast:///tmp/x.sock"}
	ref, err := o.ActivateWithComponents("events/0", newStoreServant(), bc.Encode())
	if err != nil {
		t.Fatal(err)
	}
	got, ok := ref.IOR().ZCShmBcast()
	if !ok || got != bc {
		t.Fatalf("component on minted ref: %+v ok=%v", got, ok)
	}
	// Other keys are unaffected.
	plain, err := o.Activate("plain", newStoreServant())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := plain.IOR().ZCShmBcast(); ok {
		t.Fatal("component leaked onto an unrelated key")
	}
	// Deactivate clears the registration; a reactivated key mints
	// plain references again.
	o.Deactivate("events/0")
	again, err := o.Activate("events/0", newStoreServant())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := again.IOR().ZCShmBcast(); ok {
		t.Fatal("component survived Deactivate")
	}
}

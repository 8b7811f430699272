package naming

import (
	"errors"
	"os"
	"testing"

	"zcorba/internal/orb"
	"zcorba/internal/transport"
	"zcorba/internal/typecode"
)

// dummy is a trivial servant to have something to bind.
type dummy struct{}

var dummyIface = orb.NewInterface("IDL:test/Dummy:1.0", "Dummy",
	&orb.Operation{Name: "ping", Result: typecode.TCLong})

func (dummy) Interface() *orb.Interface { return dummyIface }
func (dummy) Invoke(op string, args []any) (any, []any, error) {
	return int32(42), nil, nil
}

func setup(t *testing.T) (*Client, *orb.ORB, *orb.ORB) {
	t.Helper()
	server, err := orb.New(orb.Options{Transport: &transport.TCP{}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(server.Shutdown)
	iorStr, err := Serve(server)
	if err != nil {
		t.Fatal(err)
	}
	client, err := orb.New(orb.Options{Transport: &transport.TCP{}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(client.Shutdown)
	nc, err := Connect(client, iorStr)
	if err != nil {
		t.Fatal(err)
	}
	return nc, client, server
}

func TestBindResolveUnbind(t *testing.T) {
	nc, _, server := setup(t)
	ref, err := server.Activate("dummy", dummy{})
	if err != nil {
		t.Fatal(err)
	}
	if err := nc.Bind("services/dummy", ref); err != nil {
		t.Fatalf("Bind: %v", err)
	}
	got, err := nc.Resolve("services/dummy")
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	// The resolved reference must be invocable end to end.
	res, _, err := got.Invoke(dummyIface.Ops["ping"], nil)
	if err != nil {
		t.Fatalf("ping through resolved ref: %v", err)
	}
	if res.(int32) != 42 {
		t.Fatalf("ping=%v", res)
	}
	if err := nc.Unbind("services/dummy"); err != nil {
		t.Fatalf("Unbind: %v", err)
	}
	if _, err := nc.Resolve("services/dummy"); err == nil {
		t.Fatal("resolve after unbind must fail")
	}
}

func TestBindDuplicate(t *testing.T) {
	nc, _, server := setup(t)
	ref, err := server.Activate("dummy", dummy{})
	if err != nil {
		t.Fatal(err)
	}
	if err := nc.Bind("x", ref); err != nil {
		t.Fatal(err)
	}
	err = nc.Bind("x", ref)
	var ab *AlreadyBound
	if !errors.As(err, &ab) || ab.Name != "x" {
		t.Fatalf("want AlreadyBound, got %v", err)
	}
	// Rebind succeeds where bind fails.
	if err := nc.Rebind("x", ref); err != nil {
		t.Fatalf("Rebind: %v", err)
	}
}

func TestResolveNotFound(t *testing.T) {
	nc, _, _ := setup(t)
	_, err := nc.Resolve("missing")
	var nf *NotFound
	if !errors.As(err, &nf) || nf.Name != "missing" {
		t.Fatalf("want NotFound, got %v", err)
	}
	err = nc.Unbind("missing")
	if !errors.As(err, &nf) {
		t.Fatalf("want NotFound from Unbind, got %v", err)
	}
}

func TestListWithPrefix(t *testing.T) {
	nc, _, server := setup(t)
	ref, err := server.Activate("dummy", dummy{})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []string{"video/enc-1", "video/enc-2", "audio/enc-1"} {
		if err := nc.Bind(n, ref); err != nil {
			t.Fatal(err)
		}
	}
	got, err := nc.List("video/")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != "video/enc-1" || got[1] != "video/enc-2" {
		t.Fatalf("List = %v", got)
	}
	all, err := nc.List("")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 3 {
		t.Fatalf("List(\"\") = %v", all)
	}
}

func TestPersistenceAcrossRestart(t *testing.T) {
	store := t.TempDir() + "/bindings.json"

	// First incarnation: bind a name.
	orb1, err := orb.New(orb.Options{Transport: &transport.TCP{}})
	if err != nil {
		t.Fatal(err)
	}
	srv1 := &Server{StorePath: store}
	if err := srv1.Load(); err != nil {
		t.Fatal(err)
	}
	ref1, err := orb1.Activate(DefaultKey, srv1)
	if err != nil {
		t.Fatal(err)
	}
	dref, err := orb1.Activate("dummy", dummy{})
	if err != nil {
		t.Fatal(err)
	}
	nc1, err := Connect(orb1, ref1.String())
	if err != nil {
		t.Fatal(err)
	}
	if err := nc1.Bind("persistent/dummy", dref); err != nil {
		t.Fatal(err)
	}
	orb1.Shutdown()

	// Second incarnation: the binding is still there.
	orb2, err := orb.New(orb.Options{Transport: &transport.TCP{}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(orb2.Shutdown)
	srv2 := &Server{StorePath: store}
	if err := srv2.Load(); err != nil {
		t.Fatal(err)
	}
	ref2, err := orb2.Activate(DefaultKey, srv2)
	if err != nil {
		t.Fatal(err)
	}
	nc2, err := Connect(orb2, ref2.String())
	if err != nil {
		t.Fatal(err)
	}
	names, err := nc2.List("")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != "persistent/dummy" {
		t.Fatalf("restarted bindings: %v", names)
	}
	// Unbind persists too.
	if err := nc2.Unbind("persistent/dummy"); err != nil {
		t.Fatal(err)
	}
	srv3 := &Server{StorePath: store}
	if err := srv3.Load(); err != nil {
		t.Fatal(err)
	}
	if len(srv3.table) != 0 {
		t.Fatalf("unbind not persisted: %v", srv3.table)
	}
}

func TestLoadCorruptStore(t *testing.T) {
	store := t.TempDir() + "/bad.json"
	if err := os.WriteFile(store, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	srv := &Server{StorePath: store}
	if err := srv.Load(); err == nil {
		t.Fatal("want parse error")
	}
	if err := os.WriteFile(store, []byte(`{"x":"IOR:zz"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := srv.Load(); err == nil {
		t.Fatal("want bad-IOR error")
	}
	missing := &Server{StorePath: t.TempDir() + "/missing.json"}
	if err := missing.Load(); err != nil {
		t.Fatalf("missing store must be fine: %v", err)
	}
}

// TestPersistFailureUndoesBind: a bind whose store write fails must
// not report success, and must leave no binding behind in memory.
func TestPersistFailureUndoesBind(t *testing.T) {
	server, err := orb.New(orb.Options{Transport: &transport.TCP{}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(server.Shutdown)
	srv := &Server{StorePath: t.TempDir() + "/missing/bindings.json"}
	nsRef, err := server.Activate(DefaultKey, srv)
	if err != nil {
		t.Fatal(err)
	}
	dref, err := server.Activate("dummy", dummy{})
	if err != nil {
		t.Fatal(err)
	}
	client, err := orb.New(orb.Options{Transport: &transport.TCP{}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(client.Shutdown)
	nc, err := Connect(client, nsRef.String())
	if err != nil {
		t.Fatal(err)
	}

	err = nc.Bind("lost/dummy", dref)
	var sys *orb.SystemException
	if !errors.As(err, &sys) || sys.Name != "PERSIST_STORE" || sys.Completed != orb.CompletedNo {
		t.Fatalf("Bind with an unwritable store: want PERSIST_STORE/CompletedNo, got %v", err)
	}
	_, err = nc.Resolve("lost/dummy")
	var nf *NotFound
	if !errors.As(err, &nf) {
		t.Fatalf("Resolve after a failed bind: want NotFound, got %v", err)
	}
}

package orb

import (
	"testing"
	"time"

	"zcorba/internal/ior"
	"zcorba/internal/transport"
)

// TestMultiProfileUsesFirstProfile: a reference listing two live
// servers' IIOP profiles is parsed whole, but the client dials only the
// first. Each profile carries a vendor component (0x5A430006) the ORB
// does not interpret and must ignore. When the first server goes away
// the call fails cleanly; the second profile is never tried.
func TestMultiProfileUsesFirstProfile(t *testing.T) {
	var servers [2]*ORB
	var profs [2]ior.TaggedProfile
	for i := range servers {
		s, err := New(Options{Transport: &transport.TCP{}})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Shutdown)
		ref, err := s.Activate("store", newStoreServant())
		if err != nil {
			t.Fatal(err)
		}
		p, ok := ref.IOR().IIOP()
		if !ok {
			t.Fatal("server ref has no IIOP profile")
		}
		p.Components = append(p.Components,
			ior.TaggedComponent{Tag: 0x5A430006, Data: []byte{1, 0, 1, 0, 1, 0}})
		servers[i], profs[i] = s, p.Encode()
	}
	client, err := New(Options{Transport: &transport.TCP{},
		Retry: RetryPolicy{MaxAttempts: 3, InitialBackoff: time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(client.Shutdown)
	ref := client.ObjectFromIOR(ior.IOR{TypeID: storeIface.RepoID, Profiles: profs[:]})

	data := pattern(128)
	for i := 0; i < 4; i++ {
		res, _, err := ref.Invoke(storeIface.Ops["put_std"], []any{data})
		if err != nil {
			t.Fatalf("invoke %d: %v", i, err)
		}
		if res.(uint32) != checksum(data) {
			t.Fatalf("invoke %d: checksum mismatch", i)
		}
	}
	if n := servers[0].Stats().RequestsServed.Load(); n != 4 {
		t.Fatalf("first profile's server served %d of 4", n)
	}

	// Wait until the client has seen the first server's connection
	// close, so the next call must dial (and be refused) rather than
	// write into a dying socket.
	servers[0].Shutdown()
	deadline := time.Now().Add(5 * time.Second)
	for {
		ref.connMu.Lock()
		live := len(ref.conns) > 0 && ref.conns[0] != nil && ref.conns[0].healthy()
		ref.connMu.Unlock()
		if !live {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("client never saw the first server's connection close")
		}
		time.Sleep(time.Millisecond)
	}
	_, _, err = ref.Invoke(storeIface.Ops["put_std"], []any{data})
	var sys *SystemException
	if !asErr(err, &sys) || sys.Name != "COMM_FAILURE" || sys.Completed != CompletedNo {
		t.Fatalf("want COMM_FAILURE/CompletedNo after the first server died, got %v", err)
	}
	if n := servers[1].Stats().RequestsServed.Load(); n != 0 {
		t.Fatalf("second profile's server saw %d requests", n)
	}
}

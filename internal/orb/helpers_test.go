package orb

import (
	"testing"
	"time"

	"zcorba/internal/giop"
)

// waitFor polls cond until it holds or the deadline passes. Anything a
// peer does after the bytes that complete the caller's own call have
// left — a kernel zero-copy completion, a server-side counter bumped
// once its reply write returns, a dispatch slot released after the
// reply is sent — must be waited for, never spin-checked once.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestSplitEndpointAndDialAddr(t *testing.T) {
	cases := []struct {
		addr string
		host string
		port uint16
	}{
		{"127.0.0.1:2809", "127.0.0.1", 2809},
		{"[::1]:80", "::1", 80},
		{"inproc-7", "inproc-7", 0},
		{"host:notaport", "host:notaport", 0},
	}
	for _, c := range cases {
		h, p := splitEndpoint(c.addr)
		if h != c.host || p != c.port {
			t.Fatalf("splitEndpoint(%q) = %q,%d", c.addr, h, p)
		}
		// Round trip through dialAddr for TCP-style endpoints.
		if p != 0 {
			back := dialAddr(h, p)
			h2, p2 := splitEndpoint(back)
			if h2 != h || p2 != p {
				t.Fatalf("dialAddr round trip %q -> %q", c.addr, back)
			}
		}
	}
	if dialAddr("inproc-3", 0) != "inproc-3" {
		t.Fatal("port-0 dialAddr must pass the host through")
	}
}

func TestSysexName(t *testing.T) {
	cases := map[string]string{
		"IDL:omg.org/CORBA/COMM_FAILURE:1.0": "COMM_FAILURE",
		"IDL:omg.org/CORBA/TIMEOUT:1.0":      "TIMEOUT",
		"garbage":                            "garbage",
		"":                                   "UNKNOWN",
		"IDL:omg.org/CORBA/:1.0":             "UNKNOWN",
	}
	for in, want := range cases {
		if got := sysexName(in); got != want {
			t.Fatalf("sysexName(%q)=%q want %q", in, got, want)
		}
	}
}

func TestOperationParamProjections(t *testing.T) {
	op := storeIface.Ops["swap"]
	ins := op.InParams()
	outs := op.OutParams()
	if len(ins) != 1 || ins[0].Name != "s" {
		t.Fatalf("ins %+v", ins)
	}
	if len(outs) != 2 || outs[0].Name != "s" || outs[1].Name != "extra" {
		t.Fatalf("outs %+v", outs)
	}
	if In.String() != "in" || Out.String() != "out" || InOut.String() != "inout" {
		t.Fatal("direction strings")
	}
	if Direction(9).String() != "Direction(9)" {
		t.Fatal("unknown direction string")
	}
}

func TestExceptionFormatting(t *testing.T) {
	se := &SystemException{Name: "NO_MEMORY", Minor: 2, Completed: CompletedNo}
	if se.Error() == "" || se.RepoID() != "IDL:omg.org/CORBA/NO_MEMORY:1.0" {
		t.Fatalf("sysex %q %q", se.Error(), se.RepoID())
	}
	ue := &UserException{Type: exFull, Fields: []any{uint32(1)}}
	if ue.Error() == "" {
		t.Fatal("user exception formatting")
	}
}

func TestLocateStatusReexport(t *testing.T) {
	if LocateObjectHere != giop.LocateObjectHere {
		t.Fatal("re-exported constant drifted")
	}
}

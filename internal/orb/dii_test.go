package orb

import (
	"errors"
	"io"
	"testing"
	"time"

	"zcorba/internal/cdr"
	"zcorba/internal/giop"
	"zcorba/internal/transport"
	"zcorba/internal/typecode"
)

// calcIface is a contract served dynamically (DSI) and invoked through
// hand-built Operations, as a dynamic caller without stubs would.
var calcIface = NewInterface("IDL:test/Calc:1.0", "Calc",
	&Operation{
		Name: "add",
		Params: []Param{
			{Name: "a", Type: typecode.TCLong, Dir: In},
			{Name: "b", Type: typecode.TCLong, Dir: In},
		},
		Result: typecode.TCLong,
	},
	&Operation{
		Name: "divmod",
		Params: []Param{
			{Name: "a", Type: typecode.TCLong, Dir: In},
			{Name: "b", Type: typecode.TCLong, Dir: In},
			{Name: "rem", Type: typecode.TCLong, Dir: Out},
		},
		Result: typecode.TCLong,
	},
	&Operation{
		Name:   "echo_type",
		Params: []Param{{Name: "tc", Type: typecode.TCTypeCode, Dir: In}},
		Result: typecode.TCTypeCode,
	},
)

// paramDescTC is a struct TypeCode with a sequence member and a
// TypeCode member, sent as a tk_TypeCode value through echo_type.
var paramDescTC = typecode.StructOf("IDL:test/ParamDesc:1.0", "ParamDesc",
	typecode.Member{Name: "name", Type: typecode.TCString},
	typecode.Member{Name: "dims", Type: typecode.SequenceOf(typecode.TCULong, 0)},
	typecode.Member{Name: "type", Type: typecode.TCTypeCode},
)

func dynCalc() DynamicServant {
	return DynamicServant{
		Contract: calcIface,
		Handler: func(op string, args []any) (any, []any, error) {
			switch op {
			case "add":
				return args[0].(int32) + args[1].(int32), nil, nil
			case "divmod":
				a, b := args[0].(int32), args[1].(int32)
				if b == 0 {
					return nil, nil, &SystemException{Name: "BAD_PARAM", Completed: CompletedNo}
				}
				return a / b, []any{a % b}, nil
			case "echo_type":
				return args[0], nil, nil
			default:
				return nil, nil, &SystemException{Name: "BAD_OPERATION"}
			}
		},
	}
}

func calcPair(t *testing.T) (*ObjectRef, *ORB, *ORB) {
	t.Helper()
	server, err := New(Options{Transport: &transport.TCP{}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(server.Shutdown)
	ref, err := server.Activate("calc", dynCalc())
	if err != nil {
		t.Fatal(err)
	}
	client, err := New(Options{Transport: &transport.TCP{}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(client.Shutdown)
	cref, err := client.StringToObject(ref.String())
	if err != nil {
		t.Fatal(err)
	}
	return cref, client, server
}

func TestDSIAgainstDynamicCall(t *testing.T) {
	ref, _, _ := calcPair(t)
	res, _, err := ref.Invoke(calcIface.Ops["add"], []any{int32(40), int32(2)})
	if err != nil {
		t.Fatalf("add: %v", err)
	}
	if res.(int32) != 42 {
		t.Fatalf("add=%v", res)
	}

	res, outs, err := ref.Invoke(calcIface.Ops["divmod"], []any{int32(17), int32(5)})
	if err != nil {
		t.Fatalf("divmod: %v", err)
	}
	if res.(int32) != 3 || outs[0].(int32) != 2 {
		t.Fatalf("divmod=%v rem=%v", res, outs)
	}
}

func TestDSISystemException(t *testing.T) {
	ref, _, _ := calcPair(t)
	_, _, err := ref.Invoke(calcIface.Ops["divmod"], []any{int32(1), int32(0)})
	var se *SystemException
	if !errors.As(err, &se) || se.Name != "BAD_PARAM" {
		t.Fatalf("want BAD_PARAM, got %v", err)
	}
}

// TestDSITypeCodeValue sends a TypeCode as a tk_TypeCode value through
// a call and back: the copy that crossed the wire twice must describe
// the same struct, member by member.
func TestDSITypeCodeValue(t *testing.T) {
	ref, _, _ := calcPair(t)
	res, _, err := ref.Invoke(calcIface.Ops["echo_type"], []any{paramDescTC})
	if err != nil {
		t.Fatalf("echo_type: %v", err)
	}
	got, ok := res.(*typecode.TypeCode)
	if !ok {
		t.Fatalf("echo_type returned %T", res)
	}
	if got == paramDescTC {
		t.Fatal("echo_type returned the sent pointer; the value never crossed the wire")
	}
	if got.Kind() != paramDescTC.Kind() || got.RepoID() != paramDescTC.RepoID() {
		t.Fatalf("echo_type=%v, want %v", got, paramDescTC)
	}
	gm, wm := got.Members(), paramDescTC.Members()
	if len(gm) != len(wm) {
		t.Fatalf("echo_type has %d members, want %d", len(gm), len(wm))
	}
	for i := range wm {
		if gm[i].Name != wm[i].Name || !gm[i].Type.Equal(wm[i].Type) {
			t.Errorf("member %d = %s %v, want %s %v", i, gm[i].Name, gm[i].Type, wm[i].Name, wm[i].Type)
		}
	}
}

func TestLocate(t *testing.T) {
	ref, client, server := calcPair(t)
	status, err := ref.Locate()
	if err != nil {
		t.Fatalf("Locate: %v", err)
	}
	if status != LocateObjectHere {
		t.Fatalf("status=%v", status)
	}
	// Unknown key.
	ghost := server.refForLocked("nope", "IDL:test/Calc:1.0")
	gref, err := client.StringToObject(ghost.String())
	if err != nil {
		t.Fatal(err)
	}
	status, err = gref.Locate()
	if err != nil {
		t.Fatalf("Locate ghost: %v", err)
	}
	if status != LocateUnknownObject {
		t.Fatalf("ghost status=%v", status)
	}
}

// TestLocateRidesRefConn: Locate on a zero-copy reference rides the
// connection its calls use instead of dialling a second, standard one.
func TestLocateRidesRefConn(t *testing.T) {
	p := tcpPair(t, true)
	if _, _, err := p.ref.Invoke(storeIface.Ops["put"], []any{pattern(4096)}); err != nil {
		t.Fatal(err)
	}
	status, err := p.ref.Locate()
	if err != nil || status != LocateObjectHere {
		t.Fatalf("Locate = %v, %v", status, err)
	}
	p.client.mu.Lock()
	n := len(p.client.clientConns)
	p.client.mu.Unlock()
	if n != 1 {
		t.Fatalf("client holds %d connections to the server, want 1", n)
	}
}

// TestBulkRequestIsOneWrite: a standard-path body of several MiB is
// sent as one GIOP frame, so it leaves the client as one control write
// and arrives intact.
func TestBulkRequestIsOneWrite(t *testing.T) {
	cli := new(transport.Stats)
	p := newPair(t, Options{Transport: &transport.TCP{}}, Options{Transport: &transport.TCP{Stats: cli}})
	// Connect first, so the measured call writes only its request.
	if _, _, err := p.ref.Invoke(storeIface.Ops["swap"], []any{"x"}); err != nil {
		t.Fatal(err)
	}
	data := pattern(2<<20 + 100_000)
	writes := cli.Writes.Load()
	res, _, err := p.ref.Invoke(storeIface.Ops["put_std"], []any{data})
	if err != nil {
		t.Fatalf("bulk put_std: %v", err)
	}
	if res.(uint32) != checksum(data) {
		t.Fatal("bulk put_std: checksum mismatch")
	}
	if got := cli.Writes.Load() - writes; got != 1 {
		t.Fatalf("bulk put_std left the client in %d writes, want 1", got)
	}
}

// TestFragmentReassemblyWireLevel speaks raw GIOP to the ORB as a
// GIOP 1.1 peer may: a hand-fragmented _is_a request must be
// reassembled and answered on both server tiers, and the bytes
// reassembly moved to grow the body are counted as payload copies.
func TestFragmentReassemblyWireLevel(t *testing.T) {
	for _, tier := range serverTiers {
		t.Run(tier.name, func(t *testing.T) {
			server, err := New(Options{Transport: &transport.TCP{}, Engine: tier.engine})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(server.Shutdown)
			if _, err := server.Activate("calc", dynCalc()); err != nil {
				t.Fatal(err)
			}

			tr := &transport.TCP{}
			c, err := tr.Dial(server.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()

			// Build the full request body: header + string arg.
			e := cdr.NewEncoder(cdr.NativeOrder, giop.HeaderSize)
			(&giop.RequestHeader{
				RequestID: 7, ResponseExpected: true,
				ObjectKey: []byte("calc"), Operation: "_is_a", Principal: []byte{},
			}).Marshal(e)
			e.WriteString("IDL:test/Calc:1.0")
			body := e.Bytes()

			// Send it as three fragments.
			third := len(body) / 3
			chunks := [][]byte{body[:third], body[third : 2*third], body[2*third:]}
			for i, chunk := range chunks {
				h := giop.Header{Major: 1, Minor: 1, Flags: byte(cdr.NativeOrder),
					Type: giop.MsgRequest, Size: uint32(len(chunk))}
				if i > 0 {
					h.Type = giop.MsgFragment
				}
				if i < len(chunks)-1 {
					h.Flags |= giop.FlagMoreFragments
				}
				var hdr [giop.HeaderSize]byte
				giop.EncodeHeader(hdr[:], h)
				if _, err := c.WriteGather(hdr[:], chunk); err != nil {
					t.Fatal(err)
				}
			}

			// Read the reply and check the boolean result.
			rh, err := giop.ReadHeader(c)
			if err != nil {
				t.Fatal(err)
			}
			if rh.Type != giop.MsgReply {
				t.Fatalf("got %v", rh.Type)
			}
			rbody := make([]byte, rh.Size)
			if _, err := io.ReadFull(c, rbody); err != nil {
				t.Fatal(err)
			}
			dec := cdr.NewDecoder(rh.Order(), giop.HeaderSize, rbody)
			rep, err := giop.UnmarshalReplyHeader(dec)
			if err != nil {
				t.Fatal(err)
			}
			if rep.RequestID != 7 || rep.Status != giop.ReplyNoException {
				t.Fatalf("reply %+v", rep)
			}
			ok, err := dec.ReadBoolean()
			if err != nil || !ok {
				t.Fatalf("_is_a result %v %v", ok, err)
			}

			// A fresh server's first body is exactly the first fragment,
			// so the second grows it by append, moving the first
			// fragment's bytes; the third, when it outgrows that, grows
			// it to size, moving the first two fragments' bytes.
			a, b := len(chunks[0]), len(chunks[1])
			copies, moved := 1, a
			if grown := cap(append(make([]byte, a), make([]byte, b)...)); len(body) > grown {
				copies, moved = 2, a+a+b
			}
			st := &server.stats
			if tier.engine && engineSupported() && st.EngineConns.Load() == 0 {
				t.Fatal("the engine tier did not serve the connection")
			}
			if got := st.PayloadCopies.Load(); got != int64(copies) {
				t.Errorf("reassembly counted %d payload copies, want %d", got, copies)
			}
			if got := st.PayloadCopyBytes.Load(); got != int64(moved) {
				t.Errorf("reassembly counted %d payload copy bytes, want %d", got, moved)
			}
		})
	}
}

func TestDSIOneway(t *testing.T) {
	server, err := New(Options{Transport: &transport.TCP{}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(server.Shutdown)
	notified := make(chan uint32, 1)
	ref, err := server.Activate("store", DynamicServant{
		Contract: storeIface,
		Handler: func(op string, args []any) (any, []any, error) {
			if op != "notify" {
				return nil, nil, &SystemException{Name: "BAD_OPERATION"}
			}
			notified <- args[0].(uint32)
			return nil, nil, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	client, err := New(Options{Transport: &transport.TCP{}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(client.Shutdown)
	cref, err := client.StringToObject(ref.String())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := cref.Invoke(storeIface.Ops["notify"], []any{uint32(9)}); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-notified:
		if got != 9 {
			t.Fatalf("notified %d", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("oneway call never reached the dynamic servant")
	}
}

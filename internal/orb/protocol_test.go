package orb

import (
	"encoding/binary"
	"errors"
	"io"
	"testing"
	"time"

	"zcorba/internal/cdr"
	"zcorba/internal/giop"
	"zcorba/internal/ior"
	"zcorba/internal/shmem"
	"zcorba/internal/transport"
)

// dialRaw opens a raw transport connection to an ORB's control port.
func dialRaw(t *testing.T, o *ORB) transport.Conn {
	t.Helper()
	c, err := (&transport.TCP{}).Dial(o.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func startServer(t *testing.T, opts Options) *ORB {
	t.Helper()
	if opts.Transport == nil {
		opts.Transport = &transport.TCP{}
	}
	o, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(o.Shutdown)
	if _, err := o.Activate("store", newStoreServant()); err != nil {
		t.Fatal(err)
	}
	return o
}

// TestFramingViolations: every server tier runs the one framer, so a
// framing violation gets one answer everywhere — a MessageError, then
// EOF — and an orderly CloseConnection gets EOF alone. Each stream ends
// where the framer gives its verdict: bytes left unread at close would
// make the kernel answer with a reset instead of EOF.
func TestFramingViolations(t *testing.T) {
	header := func(h giop.Header) []byte {
		b := make([]byte, giop.HeaderSize)
		giop.EncodeHeader(b, h)
		return b
	}
	// openTrain is the initial frame of a fragment train, payload and all.
	openTrain := func(size int) []byte {
		return append(header(giop.Header{Major: 1, Minor: 1, Flags: giop.FlagMoreFragments,
			Type: giop.MsgRequest, Size: uint32(size)}), make([]byte, size)...)
	}
	oversize := header(giop.Header{Major: 1, Type: giop.MsgRequest})
	binary.BigEndian.PutUint32(oversize[8:], giop.MaxMessageSize+1)
	// A request announcing an inline train one byte over
	// giop.MaxDepositTotal; the stream ends with the message, so the
	// verdict must come before the server waits for, or takes a buffer
	// for, any of the train.
	e := cdr.NewEncoder(cdr.NativeOrder, giop.HeaderSize)
	(&giop.RequestHeader{
		RequestID: 1, ResponseExpected: true,
		ObjectKey: []byte("store"), Operation: "put", Principal: []byte{},
		ServiceContexts: []giop.ServiceContext{giop.DepositInfo{
			Arch: "test", Token: 7, Sizes: []uint32{giop.MaxDepositTotal + 1}, Inline: true,
		}.Encode()},
	}).Marshal(e)
	inlineOver := append(header(giop.Header{Major: 1, Flags: byte(cdr.NativeOrder),
		Type: giop.MsgRequest, Size: uint32(len(e.Bytes()))}), e.Bytes()...)
	// Well-formed answers, which only a client connection takes.
	answer := func(typ giop.MsgType, marshal func(*cdr.Encoder)) []byte {
		e := cdr.NewEncoder(cdr.NativeOrder, giop.HeaderSize)
		marshal(e)
		return append(header(giop.Header{Major: 1, Flags: byte(cdr.NativeOrder),
			Type: typ, Size: uint32(len(e.Bytes()))}), e.Bytes()...)
	}
	reply := answer(giop.MsgReply, (&giop.ReplyHeader{RequestID: 1}).Marshal)
	locateReply := answer(giop.MsgLocateReply,
		(&giop.LocateReplyHeader{RequestID: 1, Status: giop.LocateObjectHere}).Marshal)
	rows := []struct {
		name     string
		max      int // Options.MaxMessageSize
		stream   []byte
		msgError bool
	}{
		{"bad_magic", 0, []byte("this is not GIOP at all....")[:giop.HeaderSize], true},
		{"oversize_header", 0, oversize, true},
		{"orphan_fragment", 0, header(giop.Header{Major: 1, Minor: 1, Type: giop.MsgFragment}), true},
		{"request_inside_train", 0, append(openTrain(8),
			header(giop.Header{Major: 1, Type: giop.MsgRequest})...), true},
		{"train_over_limit", 64, append(openTrain(40),
			header(giop.Header{Major: 1, Minor: 1, Type: giop.MsgFragment, Size: 40})...), true},
		{"inline_train_over_limit", 0, inlineOver, true},
		{"reply_on_server", 0, reply, true},
		{"locate_reply_on_server", 0, locateReply, true},
		{"close_connection", 0, header(giop.Header{Major: 1, Type: giop.MsgCloseConnection}), false},
	}
	for _, tier := range serverTiers {
		t.Run(tier.name, func(t *testing.T) {
			for _, row := range rows {
				t.Run(row.name, func(t *testing.T) {
					o := startServer(t, Options{Engine: tier.engine, MaxMessageSize: row.max})
					c := dialRaw(t, o)
					if _, err := c.Write(row.stream); err != nil {
						t.Fatal(err)
					}
					got, err := readAllDeadline(c)
					if err != nil {
						t.Fatalf("connection survived or was reset: %v (after % x)", err, got)
					}
					if n := o.Pool().Stats().Outstanding; n != 0 {
						t.Fatalf("%d pool buffers taken ahead of any payload", n)
					}
					if !row.msgError {
						if len(got) != 0 {
							t.Fatalf("got % x before EOF, want nothing", got)
						}
						return
					}
					if len(got) != giop.HeaderSize {
						t.Fatalf("got % x before EOF, want one MessageError header", got)
					}
					rh, err := giop.DecodeHeader(got)
					if err != nil || rh.Type != giop.MsgMessageError || rh.Size != 0 {
						t.Fatalf("answer %+v (%v), want an empty MessageError", rh, err)
					}
				})
			}
		})
	}
}

// readAllDeadline reads c to EOF; a nil error means the peer closed.
func readAllDeadline(c transport.Conn) ([]byte, error) {
	type res struct {
		b   []byte
		err error
	}
	done := make(chan res, 1)
	go func() {
		b, err := io.ReadAll(c)
		done <- res{b, err}
	}()
	select {
	case r := <-done:
		return r.b, r.err
	case <-time.After(5 * time.Second):
		return nil, errors.New("timeout")
	}
}

func readFullDeadline(c transport.Conn, buf []byte) (int, error) {
	type res struct {
		n   int
		err error
	}
	done := make(chan res, 1)
	go func() {
		n, err := io.ReadFull(c, buf)
		done <- res{n, err}
	}()
	select {
	case r := <-done:
		return r.n, r.err
	case <-time.After(5 * time.Second):
		return 0, errors.New("timeout")
	}
}

func TestMalformedRequestHeaderGetsMessageError(t *testing.T) {
	o := startServer(t, Options{})
	c := dialRaw(t, o)
	// Valid GIOP header, truncated request body.
	var hdr [giop.HeaderSize]byte
	giop.EncodeHeader(hdr[:], giop.Header{Major: 1, Type: giop.MsgRequest, Size: 2})
	if _, err := c.WriteGather(hdr[:], []byte{0xFF, 0xFF}); err != nil {
		t.Fatal(err)
	}
	rh, err := giop.ReadHeader(c)
	if err != nil {
		t.Fatal(err) // connection closed without MessageError is also OK...
	}
	if rh.Type != giop.MsgMessageError {
		t.Fatalf("expected MessageError, got %v", rh.Type)
	}
}

func TestCloseConnectionFromClientSide(t *testing.T) {
	o := startServer(t, Options{})
	c := dialRaw(t, o)
	var hdr [giop.HeaderSize]byte
	giop.EncodeHeader(hdr[:], giop.Header{Major: 1, Type: giop.MsgCloseConnection})
	if _, err := c.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	// Peer closes in response; read returns EOF.
	if _, err := readFullDeadline(c, make([]byte, 1)); err == nil {
		t.Fatal("expected EOF after CloseConnection")
	}
}

// shmDataAddr returns a fresh shm data endpoint, skipping the test
// where shared memory is unsupported.
func shmDataAddr(t *testing.T) string {
	t.Helper()
	if !shmem.Supported() {
		t.Skip("shared memory is unsupported on this platform")
	}
	return "shm://" + t.TempDir() + "/data.sock"
}

// writePutRequest sends a put whose deposit announcement names a
// data-channel token no client ever registered, followed by payload
// when the announcement marks it inline.
func writePutRequest(t *testing.T, c transport.Conn, o *ORB, payload []byte, inline bool) {
	t.Helper()
	e := cdr.NewEncoder(cdr.NativeOrder, giop.HeaderSize)
	req := giop.RequestHeader{
		ServiceContexts: []giop.ServiceContext{giop.DepositInfo{
			Arch: o.Arch(), Token: 0xDEAD, Sizes: []uint32{uint32(len(payload))}, Inline: inline,
		}.Encode()},
		RequestID: 1, ResponseExpected: true,
		ObjectKey: []byte("store"), Operation: "put", Principal: []byte{},
	}
	req.Marshal(e)
	var hdr [giop.HeaderSize]byte
	giop.EncodeHeader(hdr[:], giop.Header{Major: 1, Flags: byte(cdr.NativeOrder),
		Type: giop.MsgRequest, Size: uint32(len(e.Bytes()))})
	segs := [][]byte{hdr[:], e.Bytes()}
	if inline {
		segs = append(segs, payload)
	}
	if _, err := c.WriteGather(segs...); err != nil {
		t.Fatal(err)
	}
}

// writeUnknownTokenRequest sends a put whose (not inline) deposit
// announcement names a data-channel token no client ever registered.
func writeUnknownTokenRequest(t *testing.T, c transport.Conn, o *ORB) {
	t.Helper()
	writePutRequest(t, c, o, make([]byte, 4096), false)
}

// readReply reads one Reply from c and returns its header and a
// decoder positioned at its body.
func readReply(t *testing.T, c transport.Conn) (giop.ReplyHeader, *cdr.Decoder) {
	t.Helper()
	rh, err := giop.ReadHeader(c)
	if err != nil {
		t.Fatalf("read reply header: %v", err)
	}
	if rh.Type != giop.MsgReply {
		t.Fatalf("expected Reply, got %v", rh.Type)
	}
	body := make([]byte, rh.Size)
	if _, err := readFullDeadline(c, body); err != nil {
		t.Fatal(err)
	}
	dec := cdr.NewDecoder(rh.Order(), giop.HeaderSize, body)
	rep, err := giop.UnmarshalReplyHeader(dec)
	if err != nil {
		t.Fatal(err)
	}
	return rep, dec
}

// TestInlineTrainIgnoresToken: a train that rides the control stream
// uses no data channel, so the token its announcement names is never
// looked up, and an unregistered one cannot hold the reply back for a
// call timeout (parking an engine dispatcher meanwhile).
func TestInlineTrainIgnoresToken(t *testing.T) {
	const timeout = 2 * time.Second
	for _, tier := range serverTiers {
		t.Run(tier.name, func(t *testing.T) {
			o := startServer(t, Options{Engine: tier.engine, ZeroCopy: true, CallTimeout: timeout})
			c := dialRaw(t, o)
			data := pattern(4096)
			start := time.Now()
			writePutRequest(t, c, o, data, true)
			rep, dec := readReply(t, c)
			if d := time.Since(start); d > timeout/4 {
				t.Fatalf("inline put answered after %v, call timeout %v", d, timeout)
			}
			if rep.RequestID != 1 || rep.Status != giop.ReplyNoException {
				t.Fatalf("reply %+v, want NO_EXCEPTION for id 1", rep)
			}
			if sum, err := dec.ReadULong(); err != nil || sum != checksum(data) {
				t.Fatalf("checksum %d (%v), want %d", sum, err, checksum(data))
			}
		})
	}
}

// TestDepositUnknownTokenAnswersTransient: a request whose deposits are
// announced for a ring the connection does not have — any stream
// plane, or an shm connection its dialer never promoted — must fail at
// once and *softly*: the server answers a TRANSIENT system exception
// (CompletedNo, so clients may retry) and keeps the connection alive
// for later requests. The announcement's token names nothing and is
// not looked up.
func TestDepositUnknownTokenAnswersTransient(t *testing.T) {
	for _, plane := range []string{"stream", "shm"} {
		t.Run(plane, func(t *testing.T) {
			var o *ORB
			var c transport.Conn
			if plane == "shm" {
				o = startServer(t, Options{ZeroCopy: true, DataListenAddr: shmDataAddr(t)})
				c = dialShmRaw(t, o)
			} else {
				o = startServer(t, Options{ZeroCopy: true})
				c = dialRaw(t, o)
			}
			start := time.Now()
			writeUnknownTokenRequest(t, c, o)
			rep, dec := readReply(t, c)
			if d := time.Since(start); d > time.Second {
				t.Fatalf("ring announcement without a ring answered after %v", d)
			}
			if rep.RequestID != 1 || rep.Status != giop.ReplySystemException {
				t.Fatalf("reply %+v, want system exception for id 1", rep)
			}
			repoID, err := dec.ReadString()
			if err != nil {
				t.Fatal(err)
			}
			if repoID != (&SystemException{Name: "TRANSIENT"}).RepoID() {
				t.Fatalf("exception %q, want TRANSIENT", repoID)
			}
			// The connection survives: a locate request still answers.
			var hdr [giop.HeaderSize]byte
			e2 := cdr.NewEncoder(cdr.NativeOrder, giop.HeaderSize)
			(&giop.LocateRequestHeader{RequestID: 2, ObjectKey: []byte("store")}).Marshal(e2)
			giop.EncodeHeader(hdr[:], giop.Header{Major: 1, Flags: byte(cdr.NativeOrder),
				Type: giop.MsgLocateRequest, Size: uint32(len(e2.Bytes()))})
			if _, err := c.WriteGather(hdr[:], e2.Bytes()); err != nil {
				t.Fatal(err)
			}
			rh, err := giop.ReadHeader(c)
			if err != nil {
				t.Fatalf("connection did not survive the aborted deposit: %v", err)
			}
			if rh.Type != giop.MsgLocateReply {
				t.Fatalf("got %v, want LocateReply on the surviving connection", rh.Type)
			}
		})
	}
}

// TestShutdownInterruptsDataChanWait: a server reader parked in a ring
// claim for a deposit that never comes must not hold Shutdown for the
// rest of its lease.
func TestShutdownInterruptsDataChanWait(t *testing.T) {
	for _, tier := range serverTiers {
		t.Run(tier.name, func(t *testing.T) {
			o := startServer(t, Options{Engine: tier.engine, ZeroCopy: true,
				DataListenAddr: shmDataAddr(t), CallTimeout: 5 * time.Second})
			c := dialShmRaw(t, o)
			if err := c.(transport.RingConn).Promote(); err != nil {
				t.Fatal(err)
			}
			writeUnknownTokenRequest(t, c.(transport.RingConn).Stream(), o)
			waitFor(t, "a reader parked in a ring claim", func() bool { return o.leases.Pending() == 1 })
			start := time.Now()
			o.Shutdown()
			if d := time.Since(start); d > time.Second {
				t.Fatalf("Shutdown took %v waiting out the ring claim", d)
			}
		})
	}
}

// dialShmRaw opens a raw, unpromoted connection to an ORB's shm
// endpoint.
func dialShmRaw(t *testing.T, o *ORB) transport.Conn {
	t.Helper()
	prof, _ := o.refForLocked("store", "IDL:test/Store:1.0").IOR().IIOP()
	data, ok := prof.Component(ior.TagZCShm)
	if !ok {
		t.Fatal("no ZC-SHM component")
	}
	zs, err := ior.DecodeZCShm(data)
	if err != nil {
		t.Fatal(err)
	}
	dc, err := (&transport.SHM{}).Dial(zs.Path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dc.Close() })
	return dc
}

// TestDataChannelBadPreambleDropped: a first frame on the shm endpoint
// that is neither a promotion nor GIOP is a framing violation: the
// server answers MessageError and closes that connection, and keeps
// serving.
func TestDataChannelBadPreambleDropped(t *testing.T) {
	o := startServer(t, Options{ZeroCopy: true, DataListenAddr: shmDataAddr(t)})
	dc := dialShmRaw(t, o)
	if _, err := dc.Write([]byte("BAD_PREAMBLE")); err != nil {
		t.Fatal(err)
	}
	got, err := readAllDeadline(dc)
	if err != nil {
		t.Fatalf("hostile first frame: %v, want MessageError then EOF", err)
	}
	h, herr := giop.DecodeHeader(got)
	if herr != nil || h.Type != giop.MsgMessageError || len(got) != giop.HeaderSize {
		t.Fatalf("hostile first frame answered % x, want one MessageError", got)
	}
	// The endpoint still serves: a locate request on a fresh connection.
	c := dialShmRaw(t, o)
	e := cdr.NewEncoder(cdr.NativeOrder, giop.HeaderSize)
	(&giop.LocateRequestHeader{RequestID: 1, ObjectKey: []byte("store")}).Marshal(e)
	var hdr [giop.HeaderSize]byte
	giop.EncodeHeader(hdr[:], giop.Header{Major: 1, Flags: byte(cdr.NativeOrder),
		Type: giop.MsgLocateRequest, Size: uint32(len(e.Bytes()))})
	if _, err := c.WriteGather(hdr[:], e.Bytes()); err != nil {
		t.Fatal(err)
	}
	if rh, err := giop.ReadHeader(c); err != nil || rh.Type != giop.MsgLocateReply {
		t.Fatalf("after a hostile frame: %v, %v; want a LocateReply", rh.Type, err)
	}
}

func TestDataChannelDeathFallsBackToMarshaled(t *testing.T) {
	// The server retiring the shm ring under an established connection
	// must not fail calls: the client detects the dead deposit path,
	// degrades the connection to standard marshaling, and the
	// invocation completes on the same stream (the acceptance scenario
	// for the ZC-deposit -> marshaled GIOP fallback ladder).
	server := startServer(t, Options{ZeroCopy: true, DataListenAddr: shmDataAddr(t),
		HostID: "shm-test-host"})
	client, err := New(Options{Transport: &transport.TCP{}, ZeroCopy: true,
		HostID: "shm-test-host", CallTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(client.Shutdown)
	ref := server.refForLocked("store", "IDL:test/Store:1.0")
	cref, err := client.StringToObject(ref.String())
	if err != nil {
		t.Fatal(err)
	}
	// Prime the connection pair through the ring.
	if _, _, err := cref.Invoke(storeIface.Ops["put"], []any{pattern(4096)}); err != nil {
		t.Fatal(err)
	}
	if n := client.Stats().ShmDeposits.Load(); n != 1 {
		t.Fatalf("ShmDeposits = %d after priming, want 1", n)
	}
	// Retire the ring on the server's side of the connection.
	server.mu.Lock()
	var victim *conn
	for c := range server.serverConns {
		victim = c
	}
	server.mu.Unlock()
	if victim == nil || !victim.hasRing() {
		t.Fatal("no ring to retire")
	}
	victim.markRingDown()

	// The next ZC call still completes — via the marshaled fallback.
	res, _, err := cref.Invoke(storeIface.Ops["put"], []any{pattern(1 << 20)})
	if err != nil {
		t.Fatalf("invoke after the ring retired: %v", err)
	}
	if res.(uint32) != checksum(pattern(1<<20)) {
		t.Fatal("fallback checksum mismatch")
	}
	if got := client.Stats().DataChanFallbacks.Load(); got < 1 {
		t.Fatalf("DataChanFallbacks = %d, want >= 1", got)
	}
	// The degraded connection keeps serving subsequent calls.
	res, _, err = cref.Invoke(storeIface.Ops["put"], []any{pattern(8192)})
	if err != nil {
		t.Fatalf("follow-up call: %v", err)
	}
	if res.(uint32) != checksum(pattern(8192)) {
		t.Fatal("follow-up checksum mismatch")
	}
}

func TestServerShutdownFailsClients(t *testing.T) {
	server := startServer(t, Options{})
	client, err := New(Options{Transport: &transport.TCP{}, CallTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(client.Shutdown)
	ref := server.refForLocked("store", "IDL:test/Store:1.0")
	cref, err := client.StringToObject(ref.String())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := cref.Invoke(storeIface.Ops["put_std"], []any{[]byte{1}}); err != nil {
		t.Fatal(err)
	}
	server.Shutdown()
	_, _, err = cref.Invoke(storeIface.Ops["put_std"], []any{[]byte{2}})
	var se *SystemException
	if !errors.As(err, &se) {
		t.Fatalf("want system exception after server shutdown, got %v", err)
	}
}

func TestLocateRequestWireLevel(t *testing.T) {
	o := startServer(t, Options{})
	c := dialRaw(t, o)
	e := cdr.NewEncoder(cdr.NativeOrder, giop.HeaderSize)
	(&giop.LocateRequestHeader{RequestID: 99, ObjectKey: []byte("store")}).Marshal(e)
	var hdr [giop.HeaderSize]byte
	giop.EncodeHeader(hdr[:], giop.Header{Major: 1, Flags: byte(cdr.NativeOrder),
		Type: giop.MsgLocateRequest, Size: uint32(len(e.Bytes()))})
	if _, err := c.WriteGather(hdr[:], e.Bytes()); err != nil {
		t.Fatal(err)
	}
	rh, err := giop.ReadHeader(c)
	if err != nil {
		t.Fatal(err)
	}
	if rh.Type != giop.MsgLocateReply {
		t.Fatalf("got %v", rh.Type)
	}
	body := make([]byte, rh.Size)
	if _, err := io.ReadFull(c, body); err != nil {
		t.Fatal(err)
	}
	dec := cdr.NewDecoder(rh.Order(), giop.HeaderSize, body)
	lrep, err := giop.UnmarshalLocateReplyHeader(dec)
	if err != nil {
		t.Fatal(err)
	}
	if lrep.RequestID != 99 || lrep.Status != giop.LocateObjectHere {
		t.Fatalf("locate reply %+v", lrep)
	}
}

package orb

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"

	"zcorba/internal/cdr"
	"zcorba/internal/giop"
	"zcorba/internal/transport"
)

// fuzzServant answers every operation without blocking, so fuzz inputs
// that decode into valid requests cannot wedge the server.
type fuzzServant struct{}

func (fuzzServant) Interface() *Interface { return storeIface }

func (fuzzServant) Invoke(string, []any) (any, []any, error) {
	return nil, nil, &SystemException{Name: "NO_IMPLEMENT", Completed: CompletedNo}
}

// controlStreamSeeds are the seed control streams of both wire fuzz
// targets: a valid request, its truncations and hostile mutations,
// garbage, and deposit-train announcements.
func controlStreamSeeds() [][]byte {
	var seeds [][]byte
	add := func(b []byte) { seeds = append(seeds, b) }
	// Valid request frame.
	e := cdr.NewEncoder(cdr.NativeOrder, giop.HeaderSize)
	req := giop.RequestHeader{
		RequestID: 1, ResponseExpected: true,
		ObjectKey: []byte("store"), Operation: "put_std", Principal: []byte{},
	}
	req.Marshal(e)
	var hdr [giop.HeaderSize]byte
	giop.EncodeHeader(hdr[:], giop.Header{Major: 1, Flags: byte(cdr.NativeOrder),
		Type: giop.MsgRequest, Size: uint32(len(e.Bytes()))})
	valid := append(append([]byte{}, hdr[:]...), e.Bytes()...)
	add(valid)
	// Truncated header.
	add(valid[:7])
	// Header promising more body than ever arrives.
	short := append([]byte{}, valid...)
	binary.BigEndian.PutUint32(short[8:], 1<<20)
	add(short)
	// Oversized message size.
	over := append([]byte{}, hdr[:]...)
	binary.BigEndian.PutUint32(over[8:], giop.MaxMessageSize+1)
	add(over)
	// Garbage, wrong magic, empty.
	add([]byte("this is not GIOP at all, not even close........"))
	add([]byte("GIOP\xff\xff\xff\xff\xff\xff\xff\xff"))
	add([]byte{})
	// CloseConnection and a fragment with no initial message.
	var cc [giop.HeaderSize]byte
	giop.EncodeHeader(cc[:], giop.Header{Major: 1, Type: giop.MsgCloseConnection})
	add(append([]byte{}, cc[:]...))
	var frag [giop.HeaderSize]byte
	giop.EncodeHeader(frag[:], giop.Header{Major: 1, Type: giop.MsgFragment, Size: 4})
	add(append(frag[:], 0xDE, 0xAD, 0xBE, 0xEF))
	// Request announcing a multi-segment deposit train: a DepositInfo
	// service context with several size-vector entries. The server must
	// route it through the scatter path (or reject it cleanly) without
	// a data channel ever delivering the announced segments.
	train := func(sizes []uint32) []byte {
		te := cdr.NewEncoder(cdr.NativeOrder, giop.HeaderSize)
		tr := giop.RequestHeader{
			RequestID: 2, ResponseExpected: true,
			ObjectKey: []byte("store"), Operation: "put8", Principal: []byte{},
			ServiceContexts: []giop.ServiceContext{
				giop.DepositInfo{Arch: "test", Token: 7, Sizes: sizes}.Encode(),
			},
		}
		tr.Marshal(te)
		var th [giop.HeaderSize]byte
		giop.EncodeHeader(th[:], giop.Header{Major: 1, Flags: byte(cdr.NativeOrder),
			Type: giop.MsgRequest, Size: uint32(len(te.Bytes()))})
		return append(append([]byte{}, th[:]...), te.Bytes()...)
	}
	add(train([]uint32{4096, 4096, 4096, 4096, 4096, 4096, 4096, 4096}))
	// Zero-length entry inside the vector: decode must reject, never
	// panic or leak a partial claim.
	add(train([]uint32{4096, 0, 4096}))
	// Hostile sizes: huge entries and a long vector.
	add(train([]uint32{1 << 31, 1, 1 << 30}))
	add(train(make([]uint32, 255)))
	return seeds
}

// FuzzConnReadLoop feeds arbitrary byte streams to a live server
// connection: truncated headers, oversized sizes, garbage frames, and
// mutations of a valid request. The read loop must never panic or hang
// — it answers with well-formed GIOP (typically MessageError) or closes
// the connection.
func FuzzConnReadLoop(f *testing.F) {
	for _, s := range controlStreamSeeds() {
		f.Add(s)
	}

	tr := &transport.InProc{}
	o, err := New(Options{Transport: tr, ZeroCopy: true,
		CallTimeout: 50 * time.Millisecond})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(o.Shutdown)
	if _, err := o.Activate("store", fuzzServant{}); err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := tr.Dial(o.Addr())
		if err != nil {
			t.Skip("server gone")
		}
		defer c.Close()
		// Drain concurrently: pipe writes block until read, and the
		// server may be answering while we are still feeding it.
		responses := make(chan []byte, 1)
		go func() {
			var all []byte
			buf := make([]byte, 4096)
			for {
				n, err := c.Read(buf)
				all = append(all, buf[:n]...)
				if err != nil {
					responses <- all
					return
				}
			}
		}()
		_, _ = c.Write(data)
		// Let the server react, then tear the connection down; the
		// drain goroutine unblocks on the closed pipe.
		time.Sleep(2 * time.Millisecond)
		_ = c.Close()
		all := <-responses

		// Whatever came back must be a sequence of well-formed GIOP
		// frames (a trailing partial frame is possible because we cut
		// the connection mid-write).
		for len(all) >= giop.HeaderSize {
			rh, err := giop.ReadHeader(bytes.NewReader(all))
			if err != nil {
				t.Fatalf("server sent malformed GIOP header % x: %v",
					all[:giop.HeaderSize], err)
			}
			if rh.Size > giop.MaxMessageSize {
				t.Fatalf("server sent oversized frame: %d", rh.Size)
			}
			frame := giop.HeaderSize + int(rh.Size)
			if frame > len(all) {
				break // partial trailing frame, cut by our Close
			}
			all = all[frame:]
		}
	})
}

// inlineStream is a control stream of zput-shaped requests, each
// followed by an inline train of the given size: the layouts the
// framer's speculation predicts, hits and misses alike.
func inlineStream(sizes ...int) []byte {
	var stream []byte
	for i, size := range sizes {
		e := cdr.NewEncoder(cdr.NativeOrder, giop.HeaderSize)
		req := giop.RequestHeader{
			RequestID: uint32(i + 1), ResponseExpected: true,
			ObjectKey: []byte("store"), Operation: "zput", Principal: []byte{},
			ServiceContexts: []giop.ServiceContext{giop.DepositInfo{
				Arch: "test", Token: 7, Sizes: []uint32{uint32(size)}, Inline: true,
			}.Encode()},
		}
		req.Marshal(e)
		var hdr [giop.HeaderSize]byte
		giop.EncodeHeader(hdr[:], giop.Header{Major: 1, Flags: byte(cdr.NativeOrder),
			Type: giop.MsgRequest, Size: uint32(len(e.Bytes()))})
		stream = append(append(stream, hdr[:]...), e.Bytes()...)
		for j := 0; j < size; j++ {
			stream = append(stream, byte(i*31+j))
		}
	}
	return stream
}

// FuzzFramer checks that framing depends neither on how the stream is
// cut nor on what the framer predicts: the legacy loop takes whatever a
// blocking scatter read returned, the event engine whatever a
// nonblocking one did, and a speculative read may put a message's bytes
// in the wrong regions. One stream is fed whole with no prediction and
// again in chunks whose sizes the fuzzer picks (cuts[i]+1 bytes,
// cycling; no cuts means byte by byte), starting from the fuzzer's
// predicted body and train sizes; both feeds must yield the same
// messages and inline trains, byte for byte, and the same violation.
func FuzzFramer(f *testing.F) {
	for i, s := range controlStreamSeeds() {
		f.Add(s, []byte{byte(i), 0, 200}, uint16(0), uint16(0))
		f.Add(s, []byte{255}, uint16(len(s)-giop.HeaderSize), uint16(4096))
	}
	sizeChange := inlineStream(4096, 4096, 60<<10, 100, 100, 4096)
	first := int(binary.BigEndian.Uint32(sizeChange[8:]))
	f.Add(sizeChange, []byte{}, uint16(0), uint16(0))
	f.Add(sizeChange, []byte{255, 7, 255}, uint16(first), uint16(4096))
	f.Add(sizeChange, []byte{255}, uint16(first+8), uint16(60<<10))
	f.Add(inlineStream(4096, speculateMax+1), []byte{255}, uint16(first), uint16(4096))
	// A 64 KiB bound keeps hostile sizes from allocating per input.
	o := framerORB(64 << 10)
	f.Fuzz(func(t *testing.T, data, cuts []byte, predBody, predTrain uint16) {
		whole, wholeErr := feedFramer(o, data, func() int { return len(data) }, 0, 0)
		i := 0
		chunked, chunkedErr := feedFramer(o, data, func() int {
			if len(cuts) == 0 {
				return 1
			}
			i++
			return int(cuts[(i-1)%len(cuts)]) + 1
		}, int(predBody), int(predTrain))
		if (wholeErr == nil) != (chunkedErr == nil) ||
			wholeErr != nil && wholeErr.Error() != chunkedErr.Error() {
			t.Fatalf("violation depends on the cut or the prediction: whole %v, chunked %v", wholeErr, chunkedErr)
		}
		if len(whole) != len(chunked) {
			t.Fatalf("whole feed framed %d messages, chunked %d", len(whole), len(chunked))
		}
		for k := range whole {
			w, c := whole[k], chunked[k]
			if w.hdr != c.hdr || !bytes.Equal(w.body, c.body) {
				t.Fatalf("message %d differs: %+v (%d bytes) vs %+v (%d bytes)", k,
					w.hdr, len(w.body), c.hdr, len(c.body))
			}
			if len(w.deposits) != len(c.deposits) {
				t.Fatalf("message %d: %d train segments vs %d", k, len(w.deposits), len(c.deposits))
			}
			for j := range w.deposits {
				if !bytes.Equal(w.deposits[j], c.deposits[j]) {
					t.Fatalf("message %d: train segment %d differs", k, j)
				}
			}
			if w.hdr.Type == giop.MsgFragment || len(w.body) > 64<<10 {
				t.Fatalf("message %d: %v of %d bytes passed the framer",
					k, w.hdr.Type, len(w.body))
			}
		}
	})
}

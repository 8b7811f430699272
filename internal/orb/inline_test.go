package orb

import (
	"strings"
	"testing"
	"time"

	"zcorba/internal/transport"
	"zcorba/internal/zcbuf"
)

// countedPair is a TCP pair whose client and server socket counters a
// test can read: cli and srv.
func countedPair(t *testing.T, engine bool) (p *pair, cli, srv *transport.Stats) {
	t.Helper()
	cli, srv = new(transport.Stats), new(transport.Stats)
	p = newPair(t,
		Options{Transport: &transport.TCP{Stats: srv}, ZeroCopy: true, Engine: engine},
		Options{Transport: &transport.TCP{Stats: cli}, ZeroCopy: true})
	return p, cli, srv
}

// settledWrites returns st's write count once it has reached at least
// min: a write is counted after the syscall returns, so the peer may
// already have acted on it.
func settledWrites(st *transport.Stats, min int64) int64 {
	for deadline := time.Now().Add(time.Second); st.Writes.Load() < min && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	return st.Writes.Load()
}

// TestInlineDeposit: a page train rides its message's control writev,
// as a request argument and as a reply result, on both server tiers.
// The sending side then makes exactly one socket write per call — the
// message's control writev — and the train still counts as one deposit
// on each side.
func TestInlineDeposit(t *testing.T) {
	const calls, size = 8, 4096
	for _, tier := range serverTiers {
		for _, dir := range []string{"request", "reply"} {
			t.Run(tier.name+"/"+dir, func(t *testing.T) {
				p, cli, srv := countedPair(t, tier.engine)
				sender, receiver, st := p.client, p.server, cli
				call := func() {
					t.Helper()
					if dir == "request" {
						data := pattern(size)
						res, _, err := p.ref.Invoke(storeIface.Ops["put"], []any{zcbuf.Wrap(data)})
						if err != nil || res.(uint32) != checksum(data) {
							t.Fatalf("put: res=%v err=%v", res, err)
						}
						return
					}
					res, _, err := p.ref.Invoke(storeIface.Ops["get"], []any{uint32(size)})
					if err != nil {
						t.Fatalf("get: %v", err)
					}
					buf := res.(*zcbuf.Buffer)
					defer buf.Release()
					for i, b := range buf.Bytes() {
						if b != byte(i%251) {
							t.Fatalf("get: byte %d is %d", i, b)
						}
					}
					if !buf.IsPageAligned() || buf.Len() != size {
						t.Fatalf("get: %d bytes, page aligned %v", buf.Len(), buf.IsPageAligned())
					}
				}
				if dir == "reply" {
					sender, receiver, st = p.server, p.client, srv
				}
				call() // dials the connection
				writes := settledWrites(st, 1)
				sent, recv := sender.Stats().DepositsSent.Load(), receiver.Stats().DepositsReceived.Load()
				for i := 0; i < calls; i++ {
					call()
				}
				if got := settledWrites(st, writes+calls) - writes; got != calls {
					t.Fatalf("%s side made %d socket writes for %d calls, want one each",
						dir, got, calls)
				}
				if got := sender.Stats().DepositsSent.Load() - sent; got != calls {
					t.Fatalf("DepositsSent moved by %d, want %d", got, calls)
				}
				if got := receiver.Stats().DepositsReceived.Load() - recv; got != calls {
					t.Fatalf("DepositsReceived moved by %d, want %d", got, calls)
				}
				if n := p.client.Stats().PayloadCopyBytes.Load() + p.server.Stats().PayloadCopyBytes.Load(); n != 0 {
					t.Fatalf("%d payload bytes copied", n)
				}
			})
		}
	}
}

// TestSpeculationSizeChanges drives one connection through every
// layout change the speculative read must survive, three calls at each
// step: 4 KiB, 60 KiB (a bigger train), a body 100 B longer, a 1 MiB
// train (over the speculation cap), and back to 4 KiB. Every train
// rides the control writev. Every byte is
// verified, and the server's hits and misses are exactly those of the
// rule: a layout is predicted once two messages in a row agreed on it.
func TestSpeculationSizeChanges(t *testing.T) {
	steps := []struct {
		size     int
		tag      string
		inline   bool
		writes   int64 // client socket writes per call
		hits     int64 // server hits and misses over the step's 3 calls
		misses   int64
		describe string
	}{
		// The first two calls establish the layout, the third hits.
		{4 << 10, "", true, 1, 1, 0, "4 KiB"},
		// The page region misses the 60 KiB train; the body still
		// matches, so the next call reads it alone and hits, and the
		// third predicts the new train and hits.
		{60 << 10, "", true, 1, 2, 1, "60 KiB"},
		// The grown body misses; two more calls re-establish it.
		{60 << 10, strings.Repeat("x", 100), true, 1, 1, 1, "body +100 B"},
		// The shorter control body misses; a train over speculateMax
		// is never a region, so the body alone is hit from the third
		// call.
		{1 << 20, "", true, 1, 1, 1, "1 MiB"},
		// The body keeps its size, so it hits at once; the page train
		// is predicted again, and hit, from the third call.
		{4 << 10, "", true, 1, 3, 0, "4 KiB again"},
	}
	for _, tier := range serverTiers {
		t.Run(tier.name, func(t *testing.T) {
			p, st, _ := countedPair(t, tier.engine)
			op := storeIface.Ops["put_tag"]
			srv := p.server.Stats()
			for i, step := range steps {
				data := pattern(step.size)
				data[0] = byte(i)
				want := checksum(data) + uint32(len(step.tag))
				writes, hits, misses := st.Writes.Load(), srv.SpeculationHits.Load(), srv.SpeculationMisses.Load()
				for k := 0; k < 3; k++ {
					res, _, err := p.ref.Invoke(op, []any{zcbuf.Wrap(data), step.tag})
					if err != nil || res.(uint32) != want {
						t.Fatalf("%s call %d: res=%v err=%v, want %d", step.describe, k, res, err, want)
					}
				}
				if got := st.Writes.Load() - writes; i > 0 && got != 3*step.writes {
					t.Fatalf("%s: %d socket writes, want %d (inline %v)", step.describe, got, 3*step.writes, step.inline)
				}
				if h, m := srv.SpeculationHits.Load()-hits, srv.SpeculationMisses.Load()-misses; h != step.hits || m != step.misses {
					t.Fatalf("%s: server speculation hits=%d misses=%d, want %d/%d",
						step.describe, h, m, step.hits, step.misses)
				}
			}
			// Replies never change shape: the client hits from its third.
			if h, m := p.client.Stats().SpeculationHits.Load(), p.client.Stats().SpeculationMisses.Load(); h != 13 || m != 0 {
				t.Fatalf("client speculation hits=%d misses=%d, want 13/0", h, m)
			}
			// Only a miss can copy, and at most once.
			if c, m := srv.PayloadCopies.Load(), srv.SpeculationMisses.Load(); c > m {
				t.Fatalf("server made %d payload copies for %d misses", c, m)
			}
		})
	}
}

// TestPipelinedMixedTrains keeps a window of calls in flight on one
// connection, alternating trains the framer may speculate with trains
// over its cap. The stream must stay framed: every call gets back the
// checksum of its own payload.
func TestPipelinedMixedTrains(t *testing.T) {
	sizes := []int{4 << 10, speculateMax + 8<<10, 100, speculateMax, 3 << 20, 32 << 10}
	for _, tier := range serverTiers {
		t.Run(tier.name, func(t *testing.T) {
			p, _, _ := countedPair(t, tier.engine)
			op := storeIface.Ops["put"]
			const window, rounds = 16, 4
			for r := 0; r < rounds; r++ {
				calls := make([]*Call, window)
				want := make([]uint32, window)
				for i := range calls {
					data := pattern(sizes[(r+i)%len(sizes)])
					data[0] = byte(i)
					want[i] = checksum(data)
					calls[i] = p.ref.InvokeAsync(op, []any{zcbuf.Wrap(data)})
				}
				for i, c := range calls {
					res, _, err := c.Wait()
					if err != nil || res.(uint32) != want[i] {
						t.Fatalf("round %d call %d: res=%v err=%v, want %d", r, i, res, err, want[i])
					}
				}
			}
			if n := p.client.Stats().DataChanFallbacks.Load(); n != 0 {
				t.Fatalf("%d data-channel fallbacks", n)
			}
		})
	}
}

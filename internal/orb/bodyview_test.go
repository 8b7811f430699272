package orb

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"zcorba/internal/trace"
	"zcorba/internal/transport"
	"zcorba/internal/typecode"
	"zcorba/internal/zcbuf"
)

// viewIface is the contract of TestBodyViewsPipelinedServants. Its
// operation names differ in length, so a name read from the wrong
// body, or from a recycled one, cannot pass for another.
var viewIface = NewInterface("IDL:test/Views:1.0", "Views",
	&Operation{
		Name:   "tag",
		Params: []Param{{Name: "s", Type: typecode.TCString, Dir: In}},
		Result: typecode.TCString,
	},
	&Operation{
		Name: "mark_with_a_much_longer_operation_name",
		Params: []Param{
			{Name: "s", Type: typecode.TCString, Dir: In},
			{Name: "data", Type: typecode.TCZCOctetSeq, Dir: In},
		},
		Result: typecode.TCString,
	},
)

// viewServant answers with what it saw: its own name, the operation
// name and the arguments. Every third call yields for a moment, so
// handlers are still running while the reader takes the next messages
// into recycled bodies.
func viewServant(name string) DynamicServant {
	var n atomic.Int64
	return DynamicServant{
		Contract: viewIface,
		Handler: func(op string, args []any) (any, []any, error) {
			if n.Add(1)%3 == 0 {
				time.Sleep(50 * time.Microsecond)
			}
			s := args[0].(string)
			if len(args) == 2 {
				s = fmt.Sprintf("%s+%d", s, args[1].(*zcbuf.Buffer).Len())
			}
			return name + "|" + op + "|" + s, nil, nil
		},
	}
}

// TestBodyViewsPipelinedServants is the ownership regression test of
// the request header's body views (docs/PERF.md, "Body views"). The
// object key and the service contexts of an inbound request alias its
// pooled body, and the operation name is interned from the servant's
// op table. Here the legacy tier serves one connection, pipelined, to
// three servants with different object keys, operations, argument
// sizes and trace contexts, while bodies are recycled between
// messages. Each servant must see its own key and operation, each
// reply must match its request, and the recorded spans must keep
// their operation names after the bodies they were decoded from are
// reused.
func TestBodyViewsPipelinedServants(t *testing.T) {
	st, ct := trace.New(1<<14), trace.New(1<<14)
	server, err := New(Options{Transport: &transport.TCP{}, ZeroCopy: true, Tracer: st})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(server.Shutdown)
	client, err := New(Options{Transport: &transport.TCP{}, ZeroCopy: true, Tracer: ct})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(client.Shutdown)

	keys := []string{"v", "views/a-rather-longer-object-key", "views/c"}
	refs := make([]*ObjectRef, len(keys))
	for i, key := range keys {
		ref, err := server.Activate(key, viewServant(key))
		if err != nil {
			t.Fatal(err)
		}
		if refs[i], err = client.StringToObject(ref.String()); err != nil {
			t.Fatal(err)
		}
	}
	unknown := &Operation{
		Name:   "no_such_operation",
		Params: []Param{{Name: "s", Type: typecode.TCString, Dir: In}},
		Result: typecode.TCString,
	}

	type pending struct {
		call *Call
		want string // the reply, or "" for BAD_OPERATION
	}
	const calls, window = 600, 8
	var inflight []pending
	reap := func() {
		p := inflight[0]
		inflight = inflight[1:]
		res, _, err := p.call.Wait()
		if p.want == "" {
			if se, ok := err.(*SystemException); !ok || se.Name != "BAD_OPERATION" {
				t.Fatalf("unknown operation: got %v, %v", res, err)
			}
			return
		}
		if err != nil {
			t.Fatalf("call for %q: %v", p.want, err)
		}
		if res.(string) != p.want {
			t.Fatalf("reply %q, want %q", res, p.want)
		}
	}
	for i := 0; i < calls; i++ {
		k := i % len(keys)
		arg := fmt.Sprintf("req-%d-%s", i, strings.Repeat("x", i%41))
		var p pending
		switch {
		case i%10 == 9:
			p.call = refs[k].InvokeAsync(unknown, []any{arg})
		case i%2 == 0:
			op := viewIface.Ops["tag"]
			p.call = refs[k].InvokeAsync(op, []any{arg})
			p.want = keys[k] + "|" + op.Name + "|" + arg
		default:
			op := viewIface.Ops["mark_with_a_much_longer_operation_name"]
			data := pattern(64 + 97*(i%13))
			p.call = refs[k].InvokeAsync(op, []any{arg, data})
			p.want = fmt.Sprintf("%s|%s|%s+%d", keys[k], op.Name, arg, len(data))
		}
		inflight = append(inflight, p)
		if len(inflight) == window {
			reap()
		}
	}
	for len(inflight) > 0 {
		reap()
	}
	if n := server.ServerConns(); n != 1 {
		t.Fatalf("server has %d connections, want the one pipelined connection", n)
	}

	// Every server span of a traced call names the operation the client
	// invoked under that trace.
	sent := map[trace.ID]string{}
	for _, s := range ct.Spans() {
		if s.Kind == trace.KindInvoke {
			sent[s.Trace] = s.Op
		}
	}
	if len(sent) != calls {
		t.Fatalf("client recorded %d invoke spans, want %d", len(sent), calls)
	}
	dispatched := 0
	for _, s := range st.Spans() {
		switch s.Kind {
		case trace.KindUnmarshal, trace.KindDispatch, trace.KindReplySend:
		default:
			continue
		}
		if want := sent[s.Trace]; s.Op != want {
			t.Fatalf("server %v span of trace %v has op %q, want %q", s.Kind, s.Trace, s.Op, want)
		}
		if s.Kind == trace.KindDispatch {
			dispatched++
		}
	}
	if want := calls - calls/10; dispatched != want {
		t.Fatalf("%d dispatch spans, want %d", dispatched, want)
	}
}

package naming

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"zcorba/internal/orb"
	"zcorba/internal/transport"
)

// The replica suite proves the replicated naming tier: N peers
// converging through push + pull log-shipping, surviving member death
// (client-side failover across the multi-profile bootstrap reference),
// and the cached resolver's hit path.

// node is one running replica: its ORB, servant, and control address.
type node struct {
	orb  *orb.ORB
	rep  *Replica
	addr string
}

// startReplicas launches n replicas, each peered with all the others,
// with a fast follower-sync interval for test convergence.
func startReplicas(t testing.TB, n int) []*node {
	t.Helper()
	nodes := make([]*node, n)
	for i := range nodes {
		o, err := orb.New(orb.Options{Transport: &transport.TCP{}})
		if err != nil {
			t.Fatal(err)
		}
		rep := NewReplica(0)
		rep.SyncInterval = 20 * time.Millisecond
		rep.PushTimeout = 2 * time.Second
		ref, err := o.Activate(DefaultKey, rep)
		if err != nil {
			o.Shutdown()
			t.Fatal(err)
		}
		p, ok := ref.IOR().IIOP()
		if !ok {
			t.Fatal("replica ref has no IIOP profile")
		}
		addr := fmt.Sprintf("%s:%d", p.Host, p.Port)
		rep.Node = NodeID(addr)
		nodes[i] = &node{orb: o, rep: rep, addr: addr}
	}
	for i, nd := range nodes {
		peers := make([]string, 0, n-1)
		for j, other := range nodes {
			if j != i {
				peers = append(peers, other.addr)
			}
		}
		if err := nd.rep.Start(nd.orb, peers); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() {
		for _, nd := range nodes {
			nd.orb.Shutdown()
		}
	})
	return nodes
}

// clientFor connects a fresh client ORB directly to one replica.
func clientFor(t testing.TB, addr string) *Client {
	t.Helper()
	o, err := orb.New(orb.Options{Transport: &transport.TCP{}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(o.Shutdown)
	nc, err := Connect(o, "corbaloc::"+addr+"/"+DefaultKey)
	if err != nil {
		t.Fatal(err)
	}
	return nc
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t testing.TB, d time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestReplicaConvergence proves the basic replication contract: a
// mutation accepted by any replica becomes visible on every replica.
func TestReplicaConvergence(t *testing.T) {
	nodes := startReplicas(t, 3)
	server, err := orb.New(orb.Options{Transport: &transport.TCP{}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(server.Shutdown)
	dref, err := server.Activate("dummy", dummy{})
	if err != nil {
		t.Fatal(err)
	}

	clients := make([]*Client, len(nodes))
	for i, nd := range nodes {
		clients[i] = clientFor(t, nd.addr)
	}

	// Bind through replica 0; replicas 1 and 2 must serve it.
	if err := clients[0].Bind("svc/a", dref); err != nil {
		t.Fatalf("bind via replica 0: %v", err)
	}
	for i := 1; i < 3; i++ {
		i := i
		waitFor(t, 3*time.Second, func() bool {
			_, err := clients[i].Resolve("svc/a")
			return err == nil
		}, fmt.Sprintf("svc/a on replica %d", i))
	}

	// Unbind through replica 1; the tombstone must reach everyone.
	if err := clients[1].Unbind("svc/a"); err != nil {
		t.Fatalf("unbind via replica 1: %v", err)
	}
	for i := 0; i < 3; i++ {
		i := i
		waitFor(t, 3*time.Second, func() bool {
			_, err := clients[i].Resolve("svc/a")
			var nf *NotFound
			return errors.As(err, &nf)
		}, fmt.Sprintf("tombstone on replica %d", i))
	}

	// A bind older than the tombstone must not resurrect the name:
	// every replica already merged the deletion, so a fresh bind gets a
	// newer stamp and wins — but resolve must then agree everywhere.
	if err := clients[2].Bind("svc/a", dref); err != nil {
		t.Fatalf("re-bind after unbind: %v", err)
	}
	for i := 0; i < 3; i++ {
		i := i
		waitFor(t, 3*time.Second, func() bool {
			_, err := clients[i].Resolve("svc/a")
			return err == nil
		}, fmt.Sprintf("re-bound svc/a on replica %d", i))
	}
}

// TestReplicaConflictLWW drives conflicting rebinds of the same name
// into two different replicas and proves all three converge on one
// winner (last-writer-wins by stamp).
func TestReplicaConflictLWW(t *testing.T) {
	nodes := startReplicas(t, 3)
	server, err := orb.New(orb.Options{Transport: &transport.TCP{}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(server.Shutdown)
	refA, _ := server.Activate("a", dummy{})
	refB, _ := server.Activate("b", dummy{})

	c0 := clientFor(t, nodes[0].addr)
	c1 := clientFor(t, nodes[1].addr)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); _ = c0.Rebind("contested", refA) }()
	go func() { defer wg.Done(); _ = c1.Rebind("contested", refB) }()
	wg.Wait()

	// All replicas must agree on a single IOR for the name.
	agree := func() bool {
		var want string
		for i, nd := range nodes {
			nd.rep.mu.Lock()
			e, ok := nd.rep.table["contested"]
			nd.rep.mu.Unlock()
			if !ok || e.deleted {
				return false
			}
			s := e.ref.String()
			if i == 0 {
				want = s
			} else if s != want {
				return false
			}
		}
		return true
	}
	waitFor(t, 3*time.Second, agree, "LWW agreement on contested name")
}

// TestReplicaConcurrentOps hammers the trio with concurrent
// bind/resolve/unbind from many goroutines (the -race workout) and
// then proves every replica converged to the same table.
func TestReplicaConcurrentOps(t *testing.T) {
	nodes := startReplicas(t, 3)
	server, err := orb.New(orb.Options{Transport: &transport.TCP{}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(server.Shutdown)
	dref, err := server.Activate("dummy", dummy{})
	if err != nil {
		t.Fatal(err)
	}

	const workers = 6
	const opsPer = 15
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			nc := clientFor(t, nodes[w%len(nodes)].addr)
			for i := 0; i < opsPer; i++ {
				name := fmt.Sprintf("w%d/obj-%d", w, i)
				if err := nc.Rebind(name, dref); err != nil {
					t.Errorf("rebind %s: %v", name, err)
					return
				}
				if _, err := nc.Resolve(name); err != nil {
					t.Errorf("resolve %s: %v", name, err)
					return
				}
				if i%3 == 0 {
					if err := nc.Unbind(name); err != nil {
						t.Errorf("unbind %s: %v", name, err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()

	// Convergence: every replica ends with the identical visible table.
	sameTable := func() bool {
		var want []string
		for i, nd := range nodes {
			nc := nd.rep
			nc.mu.Lock()
			var names []string
			for n, e := range nc.table {
				if !e.deleted {
					names = append(names, n)
				}
			}
			nc.mu.Unlock()
			if i == 0 {
				want = names
				continue
			}
			if len(names) != len(want) {
				return false
			}
			set := make(map[string]bool, len(names))
			for _, n := range names {
				set[n] = true
			}
			for _, n := range want {
				if !set[n] {
					return false
				}
			}
		}
		return true
	}
	waitFor(t, 5*time.Second, sameTable, "table convergence after concurrent ops")
	// The expected size: each worker leaves opsPer - ceil(opsPer/3) names.
	nodes[0].rep.mu.Lock()
	live := 0
	for _, e := range nodes[0].rep.table {
		if !e.deleted {
			live++
		}
	}
	nodes[0].rep.mu.Unlock()
	if want := workers * (opsPer - (opsPer+2)/3); live != want {
		t.Fatalf("converged table has %d live names, want %d", live, want)
	}
}

// TestReplicaLateJoinSnapshot starts a fourth replica after the trio
// has state: its cursor of 0 must pull a full snapshot and catch up.
func TestReplicaLateJoinSnapshot(t *testing.T) {
	nodes := startReplicas(t, 2)
	server, err := orb.New(orb.Options{Transport: &transport.TCP{}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(server.Shutdown)
	dref, err := server.Activate("dummy", dummy{})
	if err != nil {
		t.Fatal(err)
	}
	nc := clientFor(t, nodes[0].addr)
	for i := 0; i < 8; i++ {
		if err := nc.Rebind(fmt.Sprintf("pre/obj-%d", i), dref); err != nil {
			t.Fatal(err)
		}
	}
	if err := nc.Unbind("pre/obj-3"); err != nil {
		t.Fatal(err)
	}

	// Late joiner: pulls from the existing pair, starts empty.
	o, err := orb.New(orb.Options{Transport: &transport.TCP{}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(o.Shutdown)
	rep := NewReplica(0)
	rep.SyncInterval = 20 * time.Millisecond
	ref, err := o.Activate(DefaultKey, rep)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := ref.IOR().IIOP()
	rep.Node = NodeID(fmt.Sprintf("%s:%d", p.Host, p.Port))
	if err := rep.Start(o, []string{nodes[0].addr, nodes[1].addr}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rep.Drain)

	waitFor(t, 3*time.Second, func() bool {
		rep.mu.Lock()
		defer rep.mu.Unlock()
		live := 0
		for _, e := range rep.table {
			if !e.deleted {
				live++
			}
		}
		// 8 binds minus 1 unbind; the tombstone must be there too.
		tomb, has := rep.table["pre/obj-3"]
		return live == 7 && has && tomb.deleted
	}, "late joiner snapshot catch-up")
}

// TestReplicaDrainRedirectsWriters proves the graceful-departure
// contract: a draining replica refuses mutations with TRANSIENT, and a
// client holding the multi-profile bootstrap reference fails over to a
// surviving replica without seeing an error.
func TestReplicaDrainRedirectsWriters(t *testing.T) {
	nodes := startReplicas(t, 3)
	server, err := orb.New(orb.Options{Transport: &transport.TCP{}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(server.Shutdown)
	dref, err := server.Activate("dummy", dummy{})
	if err != nil {
		t.Fatal(err)
	}

	boot, err := BootstrapIOR([]string{nodes[0].addr, nodes[1].addr, nodes[2].addr})
	if err != nil {
		t.Fatal(err)
	}
	co, err := orb.New(orb.Options{
		Transport: &transport.TCP{},
		Retry: orb.RetryPolicy{MaxAttempts: 4, InitialBackoff: time.Millisecond,
			MaxBackoff: 20 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(co.Shutdown)
	nc, err := Connect(co, boot.String())
	if err != nil {
		t.Fatal(err)
	}

	// Pin the client to replica 0, then drain it.
	if err := nc.Rebind("pre-drain", dref); err != nil {
		t.Fatal(err)
	}
	nodes[0].rep.Drain()

	// The next mutation hits the draining replica, gets TRANSIENT, and
	// must transparently land on a survivor.
	if err := nc.Rebind("post-drain", dref); err != nil {
		t.Fatalf("rebind against draining primary: %v", err)
	}
	if co.Stats().Failovers.Load() < 1 {
		t.Fatal("drain did not trigger a client failover")
	}
	// The binding exists on the survivors.
	c1 := clientFor(t, nodes[1].addr)
	waitFor(t, 3*time.Second, func() bool {
		_, err := c1.Resolve("post-drain")
		return err == nil
	}, "post-drain binding on survivor")
}

// TestChaosReplicaFailover is the deterministic kill-the-primary case:
// a client resolving through the replicated fleet keeps working when
// the replica it is pinned to dies mid-traffic, with a fault injector
// also resetting one control read along the way. No client-visible
// call is lost.
func TestChaosReplicaFailover(t *testing.T) {
	nodes := startReplicas(t, 3)
	server, err := orb.New(orb.Options{Transport: &transport.TCP{}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(server.Shutdown)
	dref, err := server.Activate("dummy", dummy{})
	if err != nil {
		t.Fatal(err)
	}

	boot, err := BootstrapIOR([]string{nodes[0].addr, nodes[1].addr, nodes[2].addr})
	if err != nil {
		t.Fatal(err)
	}
	// The injector resets the 3rd control read: one mid-conversation
	// connection cut on top of the hard kill below.
	inj := transport.NewFaultInjector(7).
		Add(transport.Rule{Op: transport.OpRead, Class: transport.ClassControl,
			Kind: transport.FaultReset, Nth: 3})
	co, err := orb.New(orb.Options{
		Transport:   &transport.Faulty{Inner: &transport.TCP{}, Inj: inj},
		CallTimeout: 5 * time.Second,
		Retry: orb.RetryPolicy{MaxAttempts: 6, InitialBackoff: time.Millisecond,
			MaxBackoff: 20 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(co.Shutdown)
	res, err := NewCachedResolver(co, boot.String(), 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}

	if err := res.Rebind("svc/worker", dref); err != nil {
		t.Fatal(err)
	}
	// Warm traffic through the pinned replica; the injected reset fires
	// somewhere in here and must be absorbed by the retry policy.
	for i := 0; i < 4; i++ {
		if _, err := res.Resolve("svc/worker"); err != nil {
			t.Fatalf("resolve %d (pre-kill): %v", i, err)
		}
		res.Invalidate("svc/worker") // force server round trips
	}
	if inj.Fired() == 0 {
		t.Fatal("fault injector never fired")
	}
	// Replication pushes are asynchronous: the rebind is acknowledged
	// before it reaches the peers. Wait until both survivors hold it, so
	// the kill below tests failover rather than a write lost with its
	// only holder.
	for _, n := range nodes[1:] {
		cn := clientFor(t, n.addr)
		waitFor(t, 3*time.Second, func() bool {
			_, err := cn.Resolve("svc/worker")
			return err == nil
		}, "svc/worker replicated before the kill")
	}

	// Hard-kill the replica the client is pinned to.
	nodes[0].orb.Shutdown()

	// Every post-kill resolution must succeed via the survivors.
	for i := 0; i < 4; i++ {
		got, err := res.Resolve("svc/worker")
		if err != nil {
			t.Fatalf("resolve %d after primary kill: %v\nfaults: %v", i, err, inj.Log())
		}
		if got.IOR().Nil() {
			t.Fatalf("resolve %d returned nil ref", i)
		}
		res.Invalidate("svc/worker")
	}
	if co.Stats().Failovers.Load() < 1 {
		t.Fatal("primary kill did not register a failover")
	}
	// Mutations keep working too (land on a survivor, replicate).
	if err := res.Rebind("svc/worker2", dref); err != nil {
		t.Fatalf("rebind after primary kill: %v", err)
	}
	c2 := clientFor(t, nodes[2].addr)
	waitFor(t, 3*time.Second, func() bool {
		_, err := c2.Resolve("svc/worker2")
		return err == nil
	}, "post-kill binding replicated to survivor")
}

// TestCachedResolver pins the cache contract: hits avoid the server,
// TTL expiry and Invalidate force a round trip, and rebinding through
// the resolver invalidates its own entry.
func TestCachedResolver(t *testing.T) {
	nodes := startReplicas(t, 1)
	server, err := orb.New(orb.Options{Transport: &transport.TCP{}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(server.Shutdown)
	dref, err := server.Activate("dummy", dummy{})
	if err != nil {
		t.Fatal(err)
	}
	co, err := orb.New(orb.Options{Transport: &transport.TCP{}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(co.Shutdown)
	res, err := NewCachedResolver(co, "corbaloc::"+nodes[0].addr+"/"+DefaultKey,
		60*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Rebind("cache/x", dref); err != nil {
		t.Fatal(err)
	}

	if _, err := res.Resolve("cache/x"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := res.Resolve("cache/x"); err != nil {
			t.Fatal(err)
		}
	}
	if h, m := res.Hits(), res.Misses(); h != 5 || m != 1 {
		t.Fatalf("hits=%d misses=%d, want 5/1", h, m)
	}

	// TTL expiry forces a round trip.
	time.Sleep(80 * time.Millisecond)
	if _, err := res.Resolve("cache/x"); err != nil {
		t.Fatal(err)
	}
	if m := res.Misses(); m != 2 {
		t.Fatalf("misses after TTL expiry = %d, want 2", m)
	}

	// Explicit invalidation too.
	res.Invalidate("cache/x")
	if _, err := res.Resolve("cache/x"); err != nil {
		t.Fatal(err)
	}
	if m := res.Misses(); m != 3 {
		t.Fatalf("misses after Invalidate = %d, want 3", m)
	}

	// Rebind through the resolver drops the entry itself.
	if err := res.Rebind("cache/x", dref); err != nil {
		t.Fatal(err)
	}
	if _, err := res.Resolve("cache/x"); err != nil {
		t.Fatal(err)
	}
	if m := res.Misses(); m != 4 {
		t.Fatalf("misses after Rebind = %d, want 4", m)
	}

	// Unknown names are not cached.
	if _, err := res.Resolve("cache/none"); err == nil {
		t.Fatal("resolve of unbound name must fail")
	}
	var nf *NotFound
	if _, err := res.Resolve("cache/none"); !errors.As(err, &nf) {
		t.Fatalf("want NotFound, got %v", err)
	}
}

// BenchmarkResolve quantifies the cache: a hit must be at least an
// order of magnitude faster than the nameserver round trip
// (docs/NAMING.md; the ratio lands in BENCH_orb.json).
func BenchmarkResolve(b *testing.B) {
	nodes := startReplicas(b, 1)
	server, err := orb.New(orb.Options{Transport: &transport.TCP{}})
	if err != nil {
		b.Fatal(err)
	}
	defer server.Shutdown()
	dref, err := server.Activate("dummy", dummy{})
	if err != nil {
		b.Fatal(err)
	}
	co, err := orb.New(orb.Options{Transport: &transport.TCP{}})
	if err != nil {
		b.Fatal(err)
	}
	defer co.Shutdown()
	res, err := NewCachedResolver(co, "corbaloc::"+nodes[0].addr+"/"+DefaultKey, time.Hour)
	if err != nil {
		b.Fatal(err)
	}
	if err := res.Rebind("bench/obj", dref); err != nil {
		b.Fatal(err)
	}

	b.Run("remote", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res.Invalidate("bench/obj")
			if _, err := res.Resolve("bench/obj"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cached", func(b *testing.B) {
		if _, err := res.Resolve("bench/obj"); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := res.Resolve("bench/obj"); err != nil {
				b.Fatal(err)
			}
		}
	})
}

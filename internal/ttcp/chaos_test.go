package ttcp

import (
	"testing"

	"zcorba/internal/orb"
	"zcorba/internal/transport"
)

// TestCorbaSendSurvivesControlReset runs the pipelined ZC sender with a
// deterministic mid-stream reset of the control write that carries a
// block's deposit train: the benchmark must complete via the retry
// machinery (the window's calls fail with COMM_FAILURE and are
// re-invoked on a fresh connection) rather than abort.
func TestCorbaSendSurvivesControlReset(t *testing.T) {
	sink, err := NewCorbaSink(&transport.TCP{}, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()

	inj := transport.NewFaultInjector(9).Add(transport.Rule{
		Op: transport.OpWrite, Class: transport.ClassControl,
		Kind: transport.FaultReset, Nth: 3,
	})
	client, err := orb.New(orb.Options{
		Transport: &transport.Faulty{Inner: &transport.TCP{}, Inj: inj},
		ZeroCopy:  true,
		Retry:     ChaosRetry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Shutdown()

	res, err := CorbaSendWindow(client, sink.IOR, 128<<10, 32, 4, true)
	if err != nil {
		t.Fatalf("send under control reset: %v", err)
	}
	if res.Bytes != int64(128<<10)*32 {
		t.Fatalf("transferred %d bytes", res.Bytes)
	}
	if inj.Fired() != 1 {
		t.Fatalf("injector fired %d faults, want 1", inj.Fired())
	}
	if n := client.Stats().Retries.Load(); n < 1 {
		t.Fatalf("Retries = %d, want >= 1", n)
	}
}

// TestChaosWrapperCompletes is a smoke test for the -chaos flag's
// helper: a short windowed run under the default schedule finishes.
func TestChaosWrapperCompletes(t *testing.T) {
	sink, err := NewCorbaSink(&transport.TCP{}, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	tr, inj := Chaos(&transport.TCP{}, 42)
	client, err := orb.New(orb.Options{Transport: tr, ZeroCopy: true, Retry: ChaosRetry()})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Shutdown()
	if _, err := CorbaSendWindow(client, sink.IOR, 16<<10, 64, 4, true); err != nil {
		t.Fatalf("chaos run failed: %v", err)
	}
	t.Logf("chaos smoke: %d faults fired", inj.Fired())
}

package ttcp

import (
	"testing"

	"zcorba/internal/orb"
	"zcorba/internal/transport"
)

// TestCorbaSendSurvivesDataReset runs the pipelined ZC sender with a
// deterministic mid-stream deposit reset: the benchmark must complete
// via the retry/fallback machinery rather than abort. Blocks are above
// the ORB's 64 KiB inline bound, so their deposits take the data
// channel the reset hits.
func TestCorbaSendSurvivesDataReset(t *testing.T) {
	sink, err := NewCorbaSink(&transport.TCP{}, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()

	inj := transport.NewFaultInjector(9).Add(transport.Rule{
		Op: transport.OpWrite, Class: transport.ClassData,
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
		t.Fatalf("send under data reset: %v", err)
	}
	if res.Bytes != int64(128<<10)*32 {
		t.Fatalf("transferred %d bytes", res.Bytes)
	}
	if inj.Fired() < 1 {
		t.Fatal("fault never fired")
	}
	st := client.Stats()
	if st.DataChanFallbacks.Load()+st.Retries.Load() < 1 {
		t.Fatal("no fallback or retry recorded")
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

package mpeg

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeRoundTripQuality(t *testing.T) {
	w, h := 320, 240
	raw := SyntheticFrame(w, h, 3)
	enc := Encoder{Quality: 2}
	coded, err := enc.Encode(raw, w, h)
	if err != nil {
		t.Fatal(err)
	}
	gw, gh, back, err := Decode(coded)
	if err != nil {
		t.Fatal(err)
	}
	if gw != w || gh != h {
		t.Fatalf("geometry %dx%d", gw, gh)
	}
	if psnr := PSNR(raw, back); psnr < 30 {
		t.Fatalf("PSNR %.1f dB, want >= 30", psnr)
	}
}

func TestCompressionOnSmoothContent(t *testing.T) {
	w, h := 640, 480
	raw := SyntheticFrame(w, h, 0)
	enc := Encoder{Quality: 8}
	coded, err := enc.Encode(raw, w, h)
	if err != nil {
		t.Fatal(err)
	}
	if len(coded) >= len(raw) {
		t.Fatalf("no compression: %d >= %d", len(coded), len(raw))
	}
}

func TestQualityTradeoff(t *testing.T) {
	w, h := 320, 240
	raw := SyntheticFrame(w, h, 9)
	fine, err := (&Encoder{Quality: 1}).Encode(raw, w, h)
	if err != nil {
		t.Fatal(err)
	}
	coarse, err := (&Encoder{Quality: 32}).Encode(raw, w, h)
	if err != nil {
		t.Fatal(err)
	}
	if len(coarse) >= len(fine) {
		t.Fatalf("coarse (%d) not smaller than fine (%d)", len(coarse), len(fine))
	}
	_, _, fineBack, err := Decode(fine)
	if err != nil {
		t.Fatal(err)
	}
	_, _, coarseBack, err := Decode(coarse)
	if err != nil {
		t.Fatal(err)
	}
	if PSNR(raw, fineBack) <= PSNR(raw, coarseBack) {
		t.Fatal("finer quantization must give higher PSNR")
	}
}

func TestGeometryValidation(t *testing.T) {
	enc := Encoder{}
	if _, err := enc.Encode(make([]byte, 100), 10, 10); err == nil {
		t.Fatal("want geometry error for non-multiple-of-8")
	}
	if _, err := enc.Encode(make([]byte, 10), 16, 16); err == nil {
		t.Fatal("want geometry error for wrong length")
	}
	if _, err := enc.Encode(nil, 0, 0); err == nil {
		t.Fatal("want geometry error for zero size")
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, _, _, err := Decode(nil); err == nil {
		t.Fatal("nil stream")
	}
	if _, _, _, err := Decode([]byte("not a stream at all")); err == nil {
		t.Fatal("bad magic")
	}
	// Valid header, truncated body.
	raw := SyntheticFrame(64, 64, 1)
	coded, err := (&Encoder{}).Encode(raw, 64, 64)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := Decode(coded[:len(coded)/2]); err == nil {
		t.Fatal("truncated stream")
	}
	// Trailing junk.
	if _, _, _, err := Decode(append(append([]byte{}, coded...), 1, 2, 3)); err == nil {
		t.Fatal("trailing junk")
	}
}

func TestPropertyDecodeNeverPanics(t *testing.T) {
	f := func(data []byte) bool {
		_, _, _, _ = Decode(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyRoundTripAllQualities(t *testing.T) {
	f := func(q uint8, seed uint32) bool {
		enc := Encoder{Quality: int(q%64) + 1}
		raw := SyntheticFrame(64, 64, seed)
		coded, err := enc.Encode(raw, 64, 64)
		if err != nil {
			return false
		}
		w, h, back, err := Decode(coded)
		if err != nil || w != 64 || h != 64 {
			return false
		}
		// Reconstruction error is bounded by the quantization step.
		for i := range raw {
			d := int(raw[i]) - int(back[i])
			if d < 0 {
				d = -d
			}
			if d > enc.quality() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestRoundTripStepOneRegressions pins the two seeds whose frames, at
// quantization step 1, hold blocks spanning more than an int8 residual
// around the block mean: the encoder must move the block base instead
// of clamping residuals, so the error bound holds.
func TestRoundTripStepOneRegressions(t *testing.T) {
	for _, seed := range []uint32{0x79e17bec, 0xc65fe3c4} {
		enc := Encoder{Quality: 1}
		raw := SyntheticFrame(64, 64, seed)
		coded, err := enc.Encode(raw, 64, 64)
		if err != nil {
			t.Fatalf("seed %#x: encode: %v", seed, err)
		}
		_, _, back, err := Decode(coded)
		if err != nil {
			t.Fatalf("seed %#x: decode: %v", seed, err)
		}
		for i := range raw {
			if d := int(raw[i]) - int(back[i]); d < -1 || d > 1 {
				t.Fatalf("seed %#x: pixel %d raw %d decoded %d, beyond step 1", seed, i, raw[i], back[i])
			}
		}
	}
}

func TestPSNR(t *testing.T) {
	a := []byte{1, 2, 3, 4}
	if !math.IsInf(PSNR(a, a), 1) {
		t.Fatal("identical frames must give +Inf")
	}
	if PSNR(a, []byte{1, 2}) != 0 {
		t.Fatal("mismatched lengths must give 0")
	}
	b := []byte{2, 3, 4, 5}
	if p := PSNR(a, b); p < 40 || p > 60 {
		t.Fatalf("off-by-one PSNR %.1f", p)
	}
}

func TestSyntheticFramesDiffer(t *testing.T) {
	a := SyntheticFrame(128, 128, 1)
	b := SyntheticFrame(128, 128, 2)
	if bytes.Equal(a, b) {
		t.Fatal("consecutive frames must differ")
	}
	a2 := SyntheticFrame(128, 128, 1)
	if !bytes.Equal(a, a2) {
		t.Fatal("frames must be deterministic")
	}
}

func TestMPEG2SourcePipeline(t *testing.T) {
	src := NewMPEG2Source(320, 240)
	seq0, coded0, err := src.Next()
	if err != nil {
		t.Fatal(err)
	}
	seq1, coded1, err := src.Next()
	if err != nil {
		t.Fatal(err)
	}
	if seq0 != 0 || seq1 != 1 {
		t.Fatalf("sequence %d,%d", seq0, seq1)
	}
	if bytes.Equal(coded0, coded1) {
		t.Fatal("coded frames must differ")
	}
	raw, err := src.DecodeFrame(coded0)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) != FrameBytes(320, 240) {
		t.Fatalf("decoded %d bytes", len(raw))
	}
	// Geometry mismatch is rejected.
	other := NewMPEG2Source(64, 64)
	if _, err := other.DecodeFrame(coded0); err == nil {
		t.Fatal("want geometry mismatch error")
	}
}

func TestHDTVFrameSize(t *testing.T) {
	if FrameBytes(HDTVWidth, HDTVHeight) != 1920*1080 {
		t.Fatal("HDTV frame size")
	}
}

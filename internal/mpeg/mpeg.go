// Package mpeg provides the synthetic video codec used to reproduce
// the paper's application experiment (§5.4): a real-time MPEG-2 to
// MPEG-4 transcoder running on a cluster and fed over CORBA.
//
// The paper used a true MPEG-4 encoder; a faithful codec is out of
// scope and unnecessary for the communication experiment, so this
// package implements a deterministic stand-in with the properties that
// matter: frames are large contiguous byte buffers (HDTV luma planes),
// encoding does genuine per-pixel CPU work (8x8 block transform,
// quantization, zero run-length coding), compresses smooth content,
// and decodes back to a measurably close image (PSNR). DESIGN.md
// documents this substitution.
package mpeg

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Standard frame geometries.
const (
	// HDTVWidth and HDTVHeight are the paper's full-HDTV frame size.
	HDTVWidth  = 1920
	HDTVHeight = 1080
	// FrameRate is the real-time target of §5.4 (full frame rate).
	FrameRate = 25
)

// FrameBytes returns the size of a raw (luma) frame.
func FrameBytes(w, h int) int { return w * h }

// SyntheticFrame renders a deterministic test frame: a smooth gradient
// with a moving bright block and mild texture, seeded by the frame
// sequence number so consecutive frames differ like video does.
func SyntheticFrame(w, h int, seq uint32) []byte {
	out := make([]byte, FrameBytes(w, h))
	// Moving block position.
	bx := int(seq*13) % max(1, w-64)
	by := int(seq*7) % max(1, h-64)
	lcg := seq*2654435761 + 12345
	for y := 0; y < h; y++ {
		row := out[y*w : (y+1)*w]
		for x := 0; x < w; x++ {
			v := (x + y + int(seq)) >> 3 & 0x7F
			if x >= bx && x < bx+64 && y >= by && y < by+64 {
				v += 96
			}
			// Sparse deterministic noise (texture).
			lcg = lcg*1664525 + 1013904223
			if lcg&0xFF == 0 {
				v += int(lcg>>8) & 0x1F
			}
			if v > 255 {
				v = 255
			}
			row[x] = byte(v)
		}
	}
	return out
}

// Encoder is the synthetic MPEG-4 stand-in. Quality selects the
// quantization step (1 = near-lossless, larger = coarser and smaller
// output).
type Encoder struct {
	Quality int
}

const (
	magic     = "ZME4"
	blockSize = 8
	// escape marks a (run, value) pair in the residual stream.
	escape = 0xFF
)

var (
	// ErrBadStream reports a corrupt or foreign encoded stream.
	ErrBadStream = errors.New("mpeg: bad stream")
	// ErrGeometry reports an impossible frame geometry.
	ErrGeometry = errors.New("mpeg: bad geometry")
)

func (e *Encoder) quality() int {
	if e.Quality < 1 {
		return 4
	}
	if e.Quality > 64 {
		return 64
	}
	return e.Quality
}

// Encode compresses a raw w×h frame. The output layout is:
// magic, w, h, q (uint32s), then per 8x8 block a mean byte followed by
// a zero-run-length coded residual stream.
func (e *Encoder) Encode(raw []byte, w, h int) ([]byte, error) {
	if w <= 0 || h <= 0 || w%blockSize != 0 || h%blockSize != 0 {
		return nil, fmt.Errorf("%w: %dx%d (must be multiples of %d)", ErrGeometry, w, h, blockSize)
	}
	if len(raw) != FrameBytes(w, h) {
		return nil, fmt.Errorf("%w: %d bytes for %dx%d", ErrGeometry, len(raw), w, h)
	}
	q := e.quality()
	out := make([]byte, 0, len(raw)/2+16)
	var hdr [16]byte
	copy(hdr[:4], magic)
	binary.BigEndian.PutUint32(hdr[4:], uint32(w))
	binary.BigEndian.PutUint32(hdr[8:], uint32(h))
	binary.BigEndian.PutUint32(hdr[12:], uint32(q))
	out = append(out, hdr[:]...)

	var resid [blockSize * blockSize]int8
	for by := 0; by < h; by += blockSize {
		for bx := 0; bx < w; bx += blockSize {
			// Block base (the DC coefficient): the mean, moved just far
			// enough that every quantized residual fits an int8. At
			// step 1 a block spanning 0..255 needs all 256 values, so
			// the base may not stay at the mean; at step 2 and above
			// the mean always fits.
			sum, lo, hi := 0, 255, 0
			for y := 0; y < blockSize; y++ {
				row := raw[(by+y)*w+bx:]
				for x := 0; x < blockSize; x++ {
					v := int(row[x])
					sum += v
					lo, hi = min(lo, v), max(hi, v)
				}
			}
			mean := sum / (blockSize * blockSize)
			base := min(max(mean, hi-128*q+1, 0), lo+129*q-1, 255)
			out = append(out, byte(base))
			// Quantized residuals, each within [-128, 127] by the choice
			// of base, so reconstruction is off by less than q.
			for y := 0; y < blockSize; y++ {
				row := raw[(by+y)*w+bx:]
				for x := 0; x < blockSize; x++ {
					resid[y*blockSize+x] = int8((int(row[x]) - base) / q)
				}
			}
			// Zero run-length coding of the residual block.
			i := 0
			for i < len(resid) {
				if resid[i] == 0 {
					run := 0
					for i < len(resid) && resid[i] == 0 && run < 254 {
						run++
						i++
					}
					out = append(out, escape, 0, byte(run))
					continue
				}
				v := byte(resid[i])
				if v == escape {
					// Escape collision: encode literally via pair.
					out = append(out, escape, v, 1)
				} else {
					out = append(out, v)
				}
				i++
			}
		}
	}
	return out, nil
}

// Decode reconstructs a frame encoded by Encode.
func Decode(enc []byte) (w, h int, raw []byte, err error) {
	if len(enc) < 16 || string(enc[:4]) != magic {
		return 0, 0, nil, ErrBadStream
	}
	w = int(binary.BigEndian.Uint32(enc[4:]))
	h = int(binary.BigEndian.Uint32(enc[8:]))
	q := int(binary.BigEndian.Uint32(enc[12:]))
	if w <= 0 || h <= 0 || w > 1<<16 || h > 1<<16 ||
		w%blockSize != 0 || h%blockSize != 0 || q < 1 || q > 64 {
		return 0, 0, nil, ErrBadStream
	}
	raw = make([]byte, FrameBytes(w, h))
	pos := 16
	var resid [blockSize * blockSize]int8
	for by := 0; by < h; by += blockSize {
		for bx := 0; bx < w; bx += blockSize {
			if pos >= len(enc) {
				return 0, 0, nil, ErrBadStream
			}
			mean := int(enc[pos])
			pos++
			i := 0
			for i < len(resid) {
				if pos >= len(enc) {
					return 0, 0, nil, ErrBadStream
				}
				b := enc[pos]
				if b == escape {
					if pos+2 >= len(enc) {
						return 0, 0, nil, ErrBadStream
					}
					v, count := int8(enc[pos+1]), int(enc[pos+2])
					pos += 3
					if v == 0 && count == 0 {
						return 0, 0, nil, ErrBadStream
					}
					if v != 0 && count != 1 {
						return 0, 0, nil, ErrBadStream
					}
					for k := 0; k < count; k++ {
						if i >= len(resid) {
							return 0, 0, nil, ErrBadStream
						}
						resid[i] = v
						i++
					}
					continue
				}
				resid[i] = int8(b)
				i++
				pos++
			}
			for y := 0; y < blockSize; y++ {
				row := raw[(by+y)*w+bx:]
				for x := 0; x < blockSize; x++ {
					v := mean + int(resid[y*blockSize+x])*q
					if v < 0 {
						v = 0
					}
					if v > 255 {
						v = 255
					}
					row[x] = byte(v)
				}
			}
		}
	}
	if pos != len(enc) {
		return 0, 0, nil, ErrBadStream
	}
	return w, h, raw, nil
}

// PSNR computes the peak signal-to-noise ratio between two frames of
// equal size; +Inf for identical frames.
func PSNR(a, b []byte) float64 {
	if len(a) != len(b) || len(a) == 0 {
		return 0
	}
	var se float64
	for i := range a {
		d := float64(int(a[i]) - int(b[i]))
		se += d * d
	}
	if se == 0 {
		return math.Inf(1)
	}
	mse := se / float64(len(a))
	return 10 * math.Log10(255*255/mse)
}

// MPEG2Source models the paper's input side: a DVD/frame-grabber
// stream of MPEG-2 frames. Frames are produced in "coded" form (the
// synthetic encoder at coarse quality) and decoded before transcoding,
// mirroring the real pipeline's decode step.
type MPEG2Source struct {
	Width, Height int
	enc           Encoder
	seq           uint32
}

// NewMPEG2Source returns a source of w×h frames.
func NewMPEG2Source(w, h int) *MPEG2Source {
	return &MPEG2Source{Width: w, Height: h, enc: Encoder{Quality: 8}}
}

// Next returns the next coded MPEG-2 frame and its sequence number.
func (s *MPEG2Source) Next() (seq uint32, coded []byte, err error) {
	seq = s.seq
	s.seq++
	raw := SyntheticFrame(s.Width, s.Height, seq)
	coded, err = s.enc.Encode(raw, s.Width, s.Height)
	return seq, coded, err
}

// DecodeFrame decodes a coded frame from the source.
func (s *MPEG2Source) DecodeFrame(coded []byte) ([]byte, error) {
	w, h, raw, err := Decode(coded)
	if err != nil {
		return nil, err
	}
	if w != s.Width || h != s.Height {
		return nil, fmt.Errorf("%w: got %dx%d want %dx%d", ErrBadStream, w, h, s.Width, s.Height)
	}
	return raw, nil
}

package transport

import (
	"fmt"
	"math"
)

// Codec is the gradient wire format: how a slice of float32 gradient
// elements is packed into the float32 words a Transport actually ships.
// Payloads stay []float32 on every transport (the framing, the TCP
// encoder and the fault injectors are all word-oriented), so an encoded
// message is WireLen(n) words whose bits are the packed representation —
// the transport never needs to know whether a payload is raw or encoded.
//
// Contracts every Codec must honor (internal/dist's determinism proof
// leans on the first three; FuzzCodec checks all four):
//
//   - Deterministic: Encode and Decode are pure functions of their
//     inputs. Same gradient in, same bits out, on every rank and every
//     run.
//   - Zero-alloc: Encode packs src into dst[:WireLen(len(src))] and
//     Decode unpacks src into dst, both caller-allocated. Neither
//     touches a word past those bounds. The hot path in internal/dist
//     preallocates every buffer once per run.
//   - Self-contained frames: a message decodes from its own words alone
//     (the int8 scales travel inside the frame), so the slice owner
//     needs no codec state shared with the sender.
//   - Non-finite stays non-finite: a NaN or ±Inf source element never
//     decodes to a finite value, so a diverging rank's gradient reaches
//     the fold (and the divergence guard) as what it is.
//
// Lossy codecs (f16, int8) are paired with an error-feedback residual in
// internal/dist: the quantization error of each sent chunk is kept
// locally and added back into the next iteration's gradient before
// encoding, so the compression error is compensated over time instead of
// accumulating as bias (DISTRIBUTED.md §9).
type Codec interface {
	// Name is the wire-format name as spelled on the dnncluster command
	// line: "f32", "f16" or "int8".
	Name() string
	// WireLen returns how many float32 words Encode emits for n source
	// elements. It is a pure function of n, so sender and receiver
	// compute frame sizes independently.
	WireLen(n int) int
	// Encode packs src into dst[:WireLen(len(src))].
	Encode(dst, src []float32)
	// Decode unpacks src (WireLen(len(dst)) words) into dst.
	Decode(dst, src []float32)
}

// CodecByName resolves a wire-format name from the command line or
// dist.Options. The empty string means f32, the identity format.
func CodecByName(name string) (Codec, error) {
	switch name {
	case "", "f32":
		return F32Codec{}, nil
	case "f16":
		return F16Codec{}, nil
	case "int8":
		return Int8Codec{}, nil
	}
	return nil, fmt.Errorf("transport: unknown gradient wire format %q (want f32, f16 or int8)", name)
}

// F32Codec is the identity wire format: gradients cross the wire as the
// raw float32 words they already are. It exists so the codec seam has a
// lossless member to differential-test against; internal/dist special-
// cases it to skip the encode/decode passes entirely, keeping the f32
// path bit-for-bit and allocation-for-allocation what it was before
// codecs existed.
type F32Codec struct{}

// Name implements Codec.
func (F32Codec) Name() string { return "f32" }

// WireLen implements Codec.
func (F32Codec) WireLen(n int) int { return n }

// Encode implements Codec.
func (F32Codec) Encode(dst, src []float32) { copy(dst, src) }

// Decode implements Codec.
func (F32Codec) Decode(dst, src []float32) { copy(dst, src) }

// F16Codec packs two IEEE 754 binary16 values per float32 word
// (round-to-nearest-even conversion, the same rounding hardware f16
// units use). Wire size is half of f32, worst-case absolute error for
// normal values is 2^-11 relative (~4.9e-4), and values beyond ±65504
// saturate to ±Inf — gradients that large have already tripped the
// divergence guard.
type F16Codec struct{}

// Name implements Codec.
func (F16Codec) Name() string { return "f16" }

// WireLen implements Codec.
func (F16Codec) WireLen(n int) int { return (n + 1) / 2 }

// Encode implements Codec.
func (F16Codec) Encode(dst, src []float32) {
	n := len(src)
	for i := 0; i < n/2; i++ {
		lo := uint32(f16FromF32(src[2*i]))
		hi := uint32(f16FromF32(src[2*i+1]))
		dst[i] = math.Float32frombits(hi<<16 | lo)
	}
	if n%2 == 1 {
		dst[n/2] = math.Float32frombits(uint32(f16FromF32(src[n-1])))
	}
}

// Decode implements Codec.
func (F16Codec) Decode(dst, src []float32) {
	n := len(dst)
	for i := 0; i < n/2; i++ {
		w := math.Float32bits(src[i])
		dst[2*i] = f16ToF32(uint16(w))
		dst[2*i+1] = f16ToF32(uint16(w >> 16))
	}
	if n%2 == 1 {
		dst[n-1] = f16ToF32(uint16(math.Float32bits(src[n/2])))
	}
}

// f16FromF32 converts with round-to-nearest-even, producing the same
// bits as an IEEE-conformant hardware cvtps2ph. Subnormal halves are
// produced (not flushed): gradient tails live down there.
func f16FromF32(x float32) uint16 {
	b := math.Float32bits(x)
	sign := uint16(b>>16) & 0x8000
	exp := int32(b>>23&0xff) - 127 + 15
	man := b & 0x7fffff
	switch {
	case exp >= 31: // Inf, NaN, or overflow (saturates to Inf)
		if b&0x7fffffff > 0x7f800000 {
			return sign | 0x7e00 // quiet NaN
		}
		return sign | 0x7c00
	case exp <= 0: // subnormal half or underflow to zero
		if exp < -10 {
			return sign
		}
		man |= 0x800000 // make the implicit bit explicit
		shift := uint32(14 - exp)
		q := man >> shift
		rem := man & (1<<shift - 1)
		half := uint32(1) << (shift - 1)
		if rem > half || (rem == half && q&1 == 1) {
			q++
		}
		return sign | uint16(q)
	}
	// Normal range: round the 23-bit mantissa to 10 bits; a rounding
	// carry propagates into the exponent by construction of the addition
	// (1023.5 rounds up to the next binade, 65504+ rounds to Inf).
	q := man >> 13
	rem := man & 0x1fff
	if rem > 0x1000 || (rem == 0x1000 && q&1 == 1) {
		q++
	}
	return sign | (uint16(exp)<<10 + uint16(q))
}

// f16ToF32 is the exact (lossless) widening conversion.
func f16ToF32(h uint16) float32 {
	sign := uint32(h&0x8000) << 16
	exp := uint32(h >> 10 & 0x1f)
	man := uint32(h & 0x3ff)
	switch {
	case exp == 0:
		if man == 0 {
			return math.Float32frombits(sign) // ±0
		}
		// Subnormal half: renormalize into the f32 format.
		e := uint32(127 - 15 + 1)
		for man&0x400 == 0 {
			man <<= 1
			e--
		}
		return math.Float32frombits(sign | e<<23 | (man&0x3ff)<<13)
	case exp == 31:
		return math.Float32frombits(sign | 0x7f800000 | man<<13) // ±Inf / NaN
	}
	return math.Float32frombits(sign | (exp+127-15)<<23 | man<<13)
}

// Int8GroupLen is the quantization group for Int8Codec: each run of this
// many source elements shares one max-abs scale. Smaller groups track
// the local gradient magnitude better (conv biases and the softmax rows
// live at very different scales); one word of scale per 256 elements
// costs 0.4% of the wire, keeping the compression ratio at ~3.9x.
const Int8GroupLen = 256

// Int8Codec quantizes each Int8GroupLen-element group to signed bytes
// against the group's max-abs scale: scale = maxabs/127, q =
// clamp(round(x/scale), -127, 127), four bytes packed per float32 word
// after one word carrying the scale itself. Rounding is half-away-from-
// zero, so q is an odd function of x and the codec cannot introduce a
// systematic sign bias. A group of all zeros encodes scale 0 and decodes
// to exact zeros. A group holding any NaN or ±Inf encodes a NaN scale
// and decodes to all NaN: no max-abs scale can represent it, and
// anything finite (or an Inf of the wrong sign) would hide the
// divergence from the receiver.
type Int8Codec struct{}

// Name implements Codec.
func (Int8Codec) Name() string { return "int8" }

// WireLen implements Codec.
func (Int8Codec) WireLen(n int) int {
	w := 0
	for n > 0 {
		g := n
		if g > Int8GroupLen {
			g = Int8GroupLen
		}
		w += 1 + (g+3)/4
		n -= g
	}
	return w
}

// Encode implements Codec.
func (Int8Codec) Encode(dst, src []float32) {
	di := 0
	for len(src) > 0 {
		g := len(src)
		if g > Int8GroupLen {
			g = Int8GroupLen
		}
		grp := src[:g]
		var maxabs float32
		nan := false
		for _, v := range grp {
			if a := float32(math.Abs(float64(v))); a > maxabs {
				maxabs = a
			} else if a != a {
				nan = true
			}
		}
		scale := maxabs / 127
		switch {
		case nan || math.IsInf(float64(maxabs), 1):
			scale = float32(math.NaN()) // q × NaN decodes NaN whatever q holds
		case math.IsInf(float64(127*scale), 1):
			// Only maxabs = MaxFloat32 rounds to a scale whose 127×
			// overflows; one ulp down keeps the group's decode finite.
			scale = math.Nextafter32(scale, 0)
		}
		dst[di] = scale
		di++
		var inv float64
		if scale > 0 {
			inv = 1 / float64(scale)
		}
		for j := 0; j < g; j += 4 {
			var w uint32
			for b := 0; b < 4 && j+b < g; b++ {
				q := int32(math.Round(float64(grp[j+b]) * inv))
				if q > 127 {
					q = 127
				} else if q < -127 {
					q = -127
				}
				w |= uint32(uint8(int8(q))) << (8 * uint(b))
			}
			dst[di] = math.Float32frombits(w)
			di++
		}
		src = src[g:]
	}
}

// Decode implements Codec.
func (Int8Codec) Decode(dst, src []float32) {
	si := 0
	for len(dst) > 0 {
		g := len(dst)
		if g > Int8GroupLen {
			g = Int8GroupLen
		}
		scale := src[si]
		si++
		for j := 0; j < g; j += 4 {
			w := math.Float32bits(src[si])
			si++
			for b := 0; b < 4 && j+b < g; b++ {
				q := int8(uint8(w >> (8 * uint(b))))
				dst[j+b] = float32(q) * scale
			}
		}
		dst = dst[g:]
	}
}

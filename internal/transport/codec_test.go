package transport

import (
	"encoding/binary"
	"math"
	"testing"
)

// int8SubnormalSlack is the absolute error Int8Codec adds to its
// half-scale bound when a group's scale lands in the float32 subnormal
// range (maxabs below ~2^-119): the scale itself is then rounded to a
// multiple of 2^-149, and each of up to 127 steps inherits that error.
const int8SubnormalSlack = 0x1p-142

// gradLike fills out with a deterministic gradient-shaped signal: mixed
// magnitudes across several decades, signs alternating irregularly, a
// sprinkle of exact zeros. A splitmix-style generator keeps it
// reproducible without the seeded rng package (this is the transport
// layer; no heavy deps).
func gradLike(out []float32, seed uint64) {
	s := seed
	next := func() uint64 {
		s += 0x9e3779b97f4a7c15
		z := s
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for i := range out {
		r := next()
		if r%17 == 0 {
			out[i] = 0
			continue
		}
		mag := math.Pow(10, -float64(r>>8%7)) // 1e0 .. 1e-6
		v := (float64(r%2001)/1000 - 1) * mag
		out[i] = float32(v)
	}
}

func TestF16SpecialValuesRoundTrip(t *testing.T) {
	cases := []struct {
		in   float32
		want float32
	}{
		{0, 0},
		{float32(math.Copysign(0, -1)), float32(math.Copysign(0, -1))},
		{1, 1},
		{-1, -1},
		{0.5, 0.5},
		{65504, 65504},                // largest f16 normal
		{65505, 65504},                // rounds back down
		{65520, float32(math.Inf(1))}, // midpoint rounds to even = Inf
		{1e30, float32(math.Inf(1))},  // overflow saturates
		{-1e30, float32(math.Inf(-1))},
		{5.9604645e-8, 5.9604645e-8}, // smallest f16 subnormal
		{1e-10, 0},                   // below subnormal range
		{float32(math.Inf(1)), float32(math.Inf(1))},
		{0.0999755859375, 0.0999755859375}, // exactly representable in f16
	}
	for _, c := range cases {
		got := f16ToF32(f16FromF32(c.in))
		if math.Float32bits(got) != math.Float32bits(c.want) {
			t.Errorf("f16 round trip of %g: got %g (bits %08x), want %g", c.in, got, math.Float32bits(got), c.want)
		}
	}
	if got := f16ToF32(f16FromF32(float32(math.NaN()))); !math.IsNaN(float64(got)) {
		t.Errorf("f16 round trip of NaN: got %g, want NaN", got)
	}
}

// TestF16RoundToNearestEven pins the tie-breaking rule: a value exactly
// between two representable halves must round to the even mantissa.
func TestF16RoundToNearestEven(t *testing.T) {
	// 1 + 2^-11 is exactly between f16(1.0) (mantissa 0, even) and
	// 1+2^-10 (mantissa 1, odd): must round down to 1.0.
	in := float32(1) + float32(math.Ldexp(1, -11))
	if got := f16ToF32(f16FromF32(in)); got != 1 {
		t.Errorf("tie at 1+2^-11 rounded to %g, want 1 (even)", got)
	}
	// 1 + 3*2^-11 is exactly between mantissa 1 (odd) and 2 (even):
	// must round up to 1+2^-9.
	in = float32(1) + 3*float32(math.Ldexp(1, -11))
	want := float32(1) + float32(math.Ldexp(1, -9))
	if got := f16ToF32(f16FromF32(in)); got != want {
		t.Errorf("tie at 1+3*2^-11 rounded to %g, want %g (even)", got, want)
	}
}

func TestCodecWireLen(t *testing.T) {
	cases := []struct {
		codec   Codec
		n, want int
	}{
		{F32Codec{}, 0, 0}, {F32Codec{}, 7, 7}, {F32Codec{}, 1000, 1000},
		{F16Codec{}, 0, 0}, {F16Codec{}, 1, 1}, {F16Codec{}, 7, 4}, {F16Codec{}, 8, 4},
		{Int8Codec{}, 0, 0}, {Int8Codec{}, 1, 2}, {Int8Codec{}, 4, 2}, {Int8Codec{}, 5, 3},
		{Int8Codec{}, 256, 65}, {Int8Codec{}, 257, 67}, {Int8Codec{}, 512, 130},
	}
	for _, c := range cases {
		if got := c.codec.WireLen(c.n); got != c.want {
			t.Errorf("%s.WireLen(%d) = %d, want %d", c.codec.Name(), c.n, got, c.want)
		}
	}
}

// TestCodecDifferentialErrorBounds is the differential test against the
// f32 path: every codec's decode(encode(x)) must stay within its format
// error bound of x, element by element, on gradient-shaped data spanning
// seven decades — including lengths that exercise the odd-tail and
// group-boundary paths.
func TestCodecDifferentialErrorBounds(t *testing.T) {
	for _, n := range []int{1, 2, 3, 255, 256, 257, 1000, 4096} {
		src := make([]float32, n)
		gradLike(src, uint64(n)*31+7)
		for _, codec := range []Codec{F32Codec{}, F16Codec{}, Int8Codec{}} {
			wire := make([]float32, codec.WireLen(n))
			dec := make([]float32, n)
			codec.Encode(wire, src)
			codec.Decode(dec, wire)
			for i, want := range src {
				got := dec[i]
				var bound float64
				switch codec.(type) {
				case F32Codec:
					bound = 0 // identity: bit-exact
				case F16Codec:
					// Relative 2^-11 for normals plus the subnormal
					// quantum for the tiny tail.
					bound = math.Abs(float64(want))/2048 + math.Ldexp(1, -25)
				case Int8Codec:
					// Half a quantization step of the element's group.
					lo := (i / Int8GroupLen) * Int8GroupLen
					hi := lo + Int8GroupLen
					if hi > n {
						hi = n
					}
					var maxabs float64
					for _, v := range src[lo:hi] {
						if a := math.Abs(float64(v)); a > maxabs {
							maxabs = a
						}
					}
					bound = maxabs / 254 * 1.0001
				}
				if err := math.Abs(float64(got - want)); err > bound {
					t.Fatalf("%s n=%d elem %d: decode %g vs source %g, error %g exceeds bound %g",
						codec.Name(), n, i, got, want, err, bound)
				}
			}
		}
	}
}

// TestCodecDeterministic pins bit-for-bit reproducibility of the wire:
// encoding the same gradient twice must produce identical words (the
// cluster's determinism contract extends to compressed frames).
func TestCodecDeterministic(t *testing.T) {
	const n = 2000
	src := make([]float32, n)
	gradLike(src, 99)
	for _, codec := range []Codec{F32Codec{}, F16Codec{}, Int8Codec{}} {
		a := make([]float32, codec.WireLen(n))
		b := make([]float32, codec.WireLen(n))
		codec.Encode(a, src)
		codec.Encode(b, src)
		for i := range a {
			if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
				t.Fatalf("%s: wire word %d differs across identical encodes", codec.Name(), i)
			}
		}
	}
}

func TestInt8AllZeroGroupDecodesExact(t *testing.T) {
	src := make([]float32, 300) // one full group of zeros plus a live tail
	for i := 256; i < 300; i++ {
		src[i] = float32(i-270) * 0.01
	}
	codec := Int8Codec{}
	wire := make([]float32, codec.WireLen(len(src)))
	dec := make([]float32, len(src))
	codec.Encode(wire, src)
	codec.Decode(dec, wire)
	for i := 0; i < 256; i++ {
		if dec[i] != 0 {
			t.Fatalf("zero group element %d decoded to %g", i, dec[i])
		}
	}
}

// TestInt8CodecCarriesNonFinite pins what a diverging rank's gradient
// looks like after the wire: f16 keeps NaN and ±Inf element by element,
// and int8 — whose max-abs scale cannot represent them — turns the whole
// group into NaN. Neither may decode a non-finite element to a finite
// value or flip an Inf's sign; a finite group keeps its exact bits.
func TestInt8CodecCarriesNonFinite(t *testing.T) {
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	inputs := [][]float32{
		{1, nan, 0.5, -0.25},
		{nan, nan, nan, nan},
		{1, inf, 0.5, -0.25},
		{1, -inf, 0.5, -0.25},
	}
	for _, codec := range []Codec{F16Codec{}, Int8Codec{}} {
		for _, src := range inputs {
			wire := make([]float32, codec.WireLen(len(src)))
			dec := make([]float32, len(src))
			codec.Encode(wire, src)
			codec.Decode(dec, wire)
			for i, x := range src {
				got := float64(dec[i])
				switch {
				case codec.Name() == "int8":
					if !math.IsNaN(got) {
						t.Errorf("int8 %v: element %d decoded %g, want the whole group NaN", src, i, got)
					}
				case math.IsNaN(float64(x)) && !math.IsNaN(got):
					t.Errorf("f16 %v: NaN element %d decoded %g", src, i, got)
				case math.IsInf(float64(x), 0) && got != float64(x):
					t.Errorf("f16 %v: %g element %d decoded %g", src, x, i, got)
				}
			}
		}
	}
	// The NaN scale is confined to its own group: the next group of the
	// same frame keeps the finite encoding's exact bits.
	src := make([]float32, Int8GroupLen+4)
	copy(src[Int8GroupLen:], []float32{1, 0.5, -0.25, 0.125})
	clean := append([]float32(nil), src...)
	src[0] = float32(math.NaN())
	codec := Int8Codec{}
	wire, cleanWire := make([]float32, codec.WireLen(len(src))), make([]float32, codec.WireLen(len(src)))
	codec.Encode(wire, src)
	codec.Encode(cleanWire, clean)
	for i := codec.WireLen(Int8GroupLen); i < len(wire); i++ {
		if math.Float32bits(wire[i]) != math.Float32bits(cleanWire[i]) {
			t.Fatalf("wire word %d of the finite group changed: %08x vs %08x", i, math.Float32bits(wire[i]), math.Float32bits(cleanWire[i]))
		}
	}
}

// FuzzCodec feeds arbitrary float32 bit patterns through every codec's
// Encode and Decode and checks the Codec contracts: Encode writes
// exactly WireLen(n) words (a word past the end stays poisoned, every
// word before it is written the same whatever the buffer held), f32
// round-trips bit for bit, a finite element stays within the codec's
// documented error (f16: round-to-nearest-even, saturating to ±Inf from
// 65520; int8: half the group's wire scale, plus the float32 rounding of
// the decoded q × scale), and a non-finite element never decodes finite
// (int8: the whole group decodes NaN). The n elements cycle through
// raw's words, so a short input still spans several int8 groups.
//
//	go test -run '^$' -fuzz '^FuzzCodec$' -fuzztime 5s ./internal/transport
func FuzzCodec(f *testing.F) {
	words := func(vs ...float32) []byte {
		b := make([]byte, 4*len(vs))
		for i, v := range vs {
			binary.LittleEndian.PutUint32(b[4*i:], math.Float32bits(v))
		}
		return b
	}
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	f.Add(words(1, nan, 0.5, -0.25), uint16(4))
	f.Add(words(1, inf, 0.5, -0.25), uint16(Int8GroupLen+3))
	f.Add(words(math.MaxFloat32, -1, 65519, 65520, 5.9604645e-8, 1e-45), uint16(7))
	f.Add(words(0.125, -3e-5, 0, 7), uint16(2*Int8GroupLen+1))
	f.Fuzz(func(t *testing.T, raw []byte, n16 uint16) {
		if len(raw) < 4 {
			return
		}
		n := int(n16) % (3*Int8GroupLen + 1)
		src := make([]float32, n)
		for i := range src {
			j := 4 * (i % (len(raw) / 4))
			src[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[j:]))
		}
		for _, codec := range []Codec{F32Codec{}, F16Codec{}, Int8Codec{}} {
			wl := codec.WireLen(n)
			a, b := make([]float32, wl+1), make([]float32, wl+1)
			for i := range a {
				a[i], b[i] = math.Float32frombits(0x7fc0dead), math.Float32frombits(0xffc0beef)
			}
			codec.Encode(a, src)
			codec.Encode(b, src)
			if math.Float32bits(a[wl]) != 0x7fc0dead || math.Float32bits(b[wl]) != 0xffc0beef {
				t.Fatalf("%s: Encode of %d elements wrote past WireLen %d", codec.Name(), n, wl)
			}
			for i := 0; i < wl; i++ {
				if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
					t.Fatalf("%s: wire word %d depends on the buffer's old contents (not written?)", codec.Name(), i)
				}
			}
			dec := make([]float32, n)
			codec.Decode(dec, a[:wl])
			checkDecoded(t, codec, src, a[:wl], dec)
		}
	})
}

// checkDecoded asserts dec = Decode(wire), wire = Encode(src) against
// codec's contract, element by element.
func checkDecoded(t *testing.T, codec Codec, src, wire, dec []float32) {
	t.Helper()
	for lo := 0; lo < len(src); lo += Int8GroupLen {
		grp := src[lo:min(lo+Int8GroupLen, len(src))]
		groupFinite := true
		for _, x := range grp {
			groupFinite = groupFinite && !math.IsNaN(float64(x)) && !math.IsInf(float64(x), 0)
		}
		scale := 0.0
		if codec.Name() == "int8" {
			scale = float64(wire[codec.WireLen(lo)])
		}
		for j, x := range grp {
			i, xf, gf := lo+j, float64(x), float64(dec[lo+j])
			switch codec.Name() {
			case "f32":
				if math.Float32bits(dec[i]) != math.Float32bits(x) {
					t.Fatalf("f32 element %d: %08x decoded %08x", i, math.Float32bits(x), math.Float32bits(dec[i]))
				}
			case "f16":
				switch {
				case math.IsNaN(xf):
					if !math.IsNaN(gf) {
						t.Fatalf("f16 element %d: NaN decoded %g", i, gf)
					}
				case math.Abs(xf) >= 65520: // Inf, or saturates to it
					if gf != math.Copysign(math.Inf(1), xf) {
						t.Fatalf("f16 element %d: %g decoded %g, want a same-signed Inf", i, xf, gf)
					}
				case math.Abs(gf-xf) > math.Abs(xf)/2048+math.Ldexp(1, -25):
					t.Fatalf("f16 element %d: %g decoded %g, beyond half an f16 ulp", i, xf, gf)
				}
			case "int8":
				switch {
				case !groupFinite:
					if !math.IsNaN(gf) {
						t.Fatalf("int8 element %d (%g) of a non-finite group decoded %g, want NaN", i, xf, gf)
					}
				case math.IsNaN(gf) || math.IsInf(gf, 0):
					t.Fatalf("int8 element %d: finite %g decoded %g", i, xf, gf)
				case math.Abs(gf-xf) > scale/2*(1+1e-9)+math.Abs(gf)*0x1p-24+int8SubnormalSlack:
					t.Fatalf("int8 element %d: %g decoded %g, beyond half the scale %g", i, xf, gf, scale)
				}
			}
		}
	}
}

// TestInt8RoundHalfAwayFromZero pins the quantizer's rounding rule: it
// must be an odd function so compression cannot introduce sign bias.
func TestInt8RoundHalfAwayFromZero(t *testing.T) {
	// scale = 1 (maxabs = 127), so x quantizes to round(x).
	src := []float32{127, 0.5, -0.5, 1.5, -1.5, 2.5, -2.5}
	codec := Int8Codec{}
	wire := make([]float32, codec.WireLen(len(src)))
	dec := make([]float32, len(src))
	codec.Encode(wire, src)
	codec.Decode(dec, wire)
	want := []float32{127, 1, -1, 2, -2, 3, -3}
	for i := range want {
		if dec[i] != want[i] {
			t.Errorf("quantize %g: got %g, want %g", src[i], dec[i], want[i])
		}
	}
}

// TestCodecWireRatio pins the compression ratios the PERFORMANCE.md
// table claims: f16 halves the wire, int8 cuts it ~3.9x — comfortably
// beyond the ≥3.5x acceptance bar — at gradient-slice sizes.
func TestCodecWireRatio(t *testing.T) {
	const n = 100000
	if r := float64(n) / float64((F16Codec{}).WireLen(n)); r < 1.99 {
		t.Errorf("f16 wire ratio %.2f, want ~2", r)
	}
	if r := float64(n) / float64((Int8Codec{}).WireLen(n)); r < 3.5 {
		t.Errorf("int8 wire ratio %.2f, want >= 3.5", r)
	}
}

func TestCodecByName(t *testing.T) {
	for name, want := range map[string]string{"": "f32", "f32": "f32", "f16": "f16", "int8": "int8"} {
		c, err := CodecByName(name)
		if err != nil {
			t.Fatalf("CodecByName(%q): %v", name, err)
		}
		if c.Name() != want {
			t.Errorf("CodecByName(%q).Name() = %q, want %q", name, c.Name(), want)
		}
	}
	if _, err := CodecByName("bf16"); err == nil {
		t.Error("CodecByName(bf16) should fail")
	}
}

func BenchmarkCodec(b *testing.B) {
	const n = 1 << 20
	src := make([]float32, n)
	gradLike(src, 5)
	for _, codec := range []Codec{F32Codec{}, F16Codec{}, Int8Codec{}} {
		wire := make([]float32, codec.WireLen(n))
		dec := make([]float32, n)
		b.Run("encode/"+codec.Name(), func(b *testing.B) {
			b.SetBytes(int64(4 * n))
			for i := 0; i < b.N; i++ {
				codec.Encode(wire, src)
			}
		})
		b.Run("decode/"+codec.Name(), func(b *testing.B) {
			b.SetBytes(int64(4 * n))
			for i := 0; i < b.N; i++ {
				codec.Decode(dec, wire)
			}
		})
	}
}

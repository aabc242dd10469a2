package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"math"
	"strconv"
	"strings"
	"testing"
)

// f32 is a float32 with the given bits.
func f32(bits uint32) float32 { return math.Float32frombits(bits) }

// everyClass is one float32 of each class the wire must carry bit for
// bit: signed zeros, the subnormal extremes, the finite extremes, the
// infinities, and quiet and signalling NaNs of both signs with payload
// bits set.
var everyClass = []float32{
	f32(0x00000000), f32(0x80000000), // ±0
	f32(0x00000001), f32(0x007fffff), // smallest and largest subnormal
	f32(0x7f7fffff), f32(0xff7fffff), // ±MaxFloat32
	f32(0x7f800000), f32(0xff800000), // ±Inf
	f32(0x7fc00001), f32(0xffe5a5a5), // quiet NaNs with payloads
	f32(0x7f800001), f32(0xffa5a5a5), // signalling NaNs with payloads
	1.5, -0.1,
}

// TestEncodeFrameMatchesV1Bytes pins the wire format: these are the bytes
// the element-at-a-time encoder wrote for the same tag and payload.
func TestEncodeFrameMatchesV1Bytes(t *testing.T) {
	tag := MakeTagE(KindGather, 3, 1234, 7, 2)
	payload := []float32{
		0, f32(0x80000000), f32(0x00000001), f32(0x007fffff),
		math.MaxFloat32, -math.MaxFloat32, float32(math.Inf(1)), float32(math.Inf(-1)),
		f32(0x7fc00001), f32(0x7f800001), f32(0xffa5a5a5), 1.5, -0.1,
	}
	const want = "02000780340130100d000000" +
		"00000000" + "00000080" + "01000000" + "ffff7f00" +
		"ffff7f7f" + "ffff7fff" + "0000807f" + "000080ff" +
		"0100c07f" + "0100807f" + "a5a5a5ff" + "0000c03f" + "cdccccbd"
	b := make([]byte, frameHeader+4*len(payload))
	encodeFrame(b, tag, payload)
	if got := hex.EncodeToString(b); got != want {
		t.Fatalf("encodeFrame wrote\n%s\nwant\n%s", got, want)
	}
}

// TestWireHelpersAgree runs both branches of each wire helper — the
// byte view a little-endian host takes and the byte-swapping loop every
// other host takes — on random words, NaN payloads included, against
// each other and against encoding/binary.
func TestWireHelpersAgree(t *testing.T) {
	const n = 4099
	src := make([]float32, n)
	s := uint64(1)
	for i := range src {
		s = s*6364136223846793005 + 1442695040888963407
		src[i] = f32(uint32(s >> 32))
	}
	copy(src, everyClass)
	ref := make([]byte, 4*n)
	for i, v := range src {
		binary.LittleEndian.PutUint32(ref[4*i:], math.Float32bits(v))
	}

	loop := make([]byte, 4*n)
	toWireLoop(loop, src)
	if !bytes.Equal(loop, ref) {
		t.Fatal("toWireLoop does not write the little-endian image")
	}
	host := make([]byte, 4*n)
	toWire(host, src)
	if !bytes.Equal(host, ref) {
		t.Fatal("toWire does not write the little-endian image")
	}
	if hostLE && !bytes.Equal(wordBytes(src), ref) {
		t.Fatal("a little-endian host's byte view is not the wire image")
	}

	for name, decode := range map[string]func([]float32){"fromWire": fromWire, "fromWireLoop": fromWireLoop} {
		got := make([]float32, n)
		copy(wordBytes(got), ref)
		decode(got)
		if name == "fromWire" || !hostLE {
			for i := range got {
				if math.Float32bits(got[i]) != math.Float32bits(src[i]) {
					t.Fatalf("%s: word %d = %08x, want %08x", name, i, math.Float32bits(got[i]), math.Float32bits(src[i]))
				}
			}
		}
	}
	if hostLE {
		// On a little-endian host the loop is the identity the view
		// branch assumes: it must not touch a bit, NaN payloads included.
		got := append([]float32(nil), src...)
		fromWireLoop(got)
		for i := range got {
			if math.Float32bits(got[i]) != math.Float32bits(src[i]) {
				t.Fatalf("fromWireLoop: word %d = %08x, want %08x", i, math.Float32bits(got[i]), math.Float32bits(src[i]))
			}
		}
	}
}

// twoRanks builds a 2-rank group over each fabric.
var twoRanks = []struct {
	name  string
	group func(t testing.TB) []Transport
}{
	{"local", func(testing.TB) []Transport {
		g := NewLocalGroup(2)
		return []Transport{g[0], g[1]}
	}},
	{"tcp", func(t testing.TB) []Transport { return dialTCPGroup(t, 2) }},
}

// TestEveryBitPatternSurvivesTheWire sends one float32 of each class
// over Local and over a 2-rank TCP group and requires identical bits
// back, then a second frame of the same length with a different pattern:
// it lands in the recycled buffer of the first, so stale data would show.
func TestEveryBitPatternSurvivesTheWire(t *testing.T) {
	first := everyClass
	second := make([]float32, len(first))
	for i, v := range first {
		second[len(second)-1-i] = f32(^math.Float32bits(v))
	}
	for _, fabric := range twoRanks {
		t.Run(fabric.name, func(t *testing.T) {
			group := fabric.group(t)
			defer group[0].Close()
			defer group[1].Close()
			got := make([]float32, len(first))
			for i, want := range [][]float32{first, second} {
				tag := MakeTag(KindGrad, i, 0, 1)
				if err := group[1].Send(0, tag, want); err != nil {
					t.Fatalf("Send %d: %v", i, err)
				}
				if err := group[0].Recv(1, tag, got); err != nil {
					t.Fatalf("Recv %d: %v", i, err)
				}
				for j := range want {
					if math.Float32bits(got[j]) != math.Float32bits(want[j]) {
						t.Fatalf("frame %d word %d: got %08x, want %08x", i, j, math.Float32bits(got[j]), math.Float32bits(want[j]))
					}
				}
			}
		})
	}
}

// TestCheckFrameLen pins the length check TCP.Send makes before it
// enqueues anything: the limit itself is accepted, one element more is
// refused with an error naming both numbers, so an oversized payload
// fails at its sender instead of the peer's reader failing the link as
// if the sender were corrupt.
func TestCheckFrameLen(t *testing.T) {
	if err := checkFrameLen(maxFrameElems); err != nil {
		t.Fatalf("checkFrameLen(limit) = %v, want nil", err)
	}
	err := checkFrameLen(maxFrameElems + 1)
	if err == nil {
		t.Fatal("checkFrameLen accepted a payload over the frame limit")
	}
	for _, n := range []int{maxFrameElems + 1, maxFrameElems} {
		if !strings.Contains(err.Error(), strconv.Itoa(n)) {
			t.Errorf("error %q does not name %d", err, n)
		}
	}
}

// lenetCounts are LeNet's parameter tensor sizes (conv1, conv2, ip1, ip2;
// weights then bias): 431,080 floats in all.
var lenetCounts = []int{500, 20, 25000, 50, 400000, 500, 5000, 10}

// TestWarmRoundAllocatesNothing pins that a warm link moves frames
// without allocating: a round is every LeNet parameter's 2-rank scatter
// slice sent from rank 0 to rank 1 and the other slice sent back, and
// after one round every buffer, queue slot and dedupe entry it needs is
// recycled.
func TestWarmRoundAllocatesNothing(t *testing.T) {
	for _, fabric := range twoRanks {
		t.Run(fabric.name, func(t *testing.T) {
			group := fabric.group(t)
			defer group[0].Close()
			defer group[1].Close()
			params := make([][]float32, len(lenetCounts))
			bufs := make([][]float32, len(lenetCounts))
			for pi, n := range lenetCounts {
				params[pi] = make([]float32, n)
				bufs[pi] = make([]float32, n)
			}
			iter := 0
			var err error
			round := func() {
				for pi, p := range params {
					half := len(p) / 2
					tag := MakeTag(KindGrad, iter, pi, 0)
					if err == nil {
						err = group[0].Send(1, tag, p[half:])
					}
					if err == nil {
						err = group[1].Recv(0, tag, bufs[pi][half:])
					}
					tag = MakeTag(KindGrad, iter, pi, 1)
					if err == nil {
						err = group[1].Send(0, tag, p[:half])
					}
					if err == nil {
						err = group[0].Recv(1, tag, bufs[pi][:half])
					}
				}
				iter++
			}
			round()
			allocs := testing.AllocsPerRun(20, round)
			if err != nil {
				t.Fatal(err)
			}
			if allocs != 0 {
				t.Fatalf("a warm round allocates %v times, want 0", allocs)
			}
		})
	}
}

// FuzzReadFrame drives arbitrary bytes through the TCP frame reader: it
// never panics, a declared length above maxFrameElems or a short body is
// an error, and an encodeFrame output decodes to the same tag and bits.
func FuzzReadFrame(f *testing.F) {
	frameOf := func(tag Tag, p []float32) []byte {
		b := make([]byte, frameHeader+4*len(p))
		encodeFrame(b, tag, p)
		return b
	}
	f.Add(frameOf(MakeTagE(KindBcast, 2, 9, 3, 1), everyClass), uint64(0), uint16(0))
	f.Add(frameOf(MakeTag(KindLoss, 0, 0, 1), nil), uint64(1), uint16(3))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 0, 0, 0, 4}, uint64(2), uint16(1))    // 2^26 declared, no body
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 1, 0, 0, 4}, uint64(3), uint16(2))    // one over the limit
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 2, 0, 0, 0, 1}, uint64(4), uint16(5)) // short body
	f.Fuzz(func(t *testing.T, raw []byte, tag uint64, n16 uint16) {
		// Arbitrary bytes: no panic, and the declared length rules.
		var declared uint32
		if len(raw) >= frameHeader {
			declared = binary.LittleEndian.Uint32(raw[8:])
		}
		buffer := func(_ Tag, n int) []float32 {
			if n > maxFrameElems {
				t.Fatalf("buffer asked for %d elements: the limit must be checked first", n)
			}
			// A declared body longer than the input is short whatever the
			// length: hand back a buffer that still outruns the input
			// rather than allocating up to 256 MB for it.
			if n > len(raw) {
				n = len(raw)/4 + 1
			}
			return make([]float32, n)
		}
		gotTag, payload, err := readFrame(bufio.NewReader(bytes.NewReader(raw)), buffer)
		body := len(raw) - frameHeader
		switch {
		case len(raw) < frameHeader:
			if err == nil {
				t.Fatalf("%d bytes decoded as a frame", len(raw))
			}
		case declared > maxFrameElems:
			if err == nil {
				t.Fatalf("declared length %d above the limit accepted", declared)
			}
		case 4*int(declared) > body:
			if err == nil {
				t.Fatalf("declared length %d accepted with a %d-byte body", declared, body)
			}
		default:
			if err != nil {
				t.Fatalf("well-formed frame (%d elements) rejected: %v", declared, err)
			}
			if uint64(gotTag) != binary.LittleEndian.Uint64(raw) || len(payload) != int(declared) ||
				!bytes.Equal(wordBytesLE(payload), raw[frameHeader:frameHeader+4*declared]) {
				t.Fatalf("frame decoded to %v/%d elements, not its header and body", gotTag, len(payload))
			}
		}

		// Any encodeFrame output decodes to the same tag and bits.
		words := make([]float32, min(int(n16), len(raw)/4))
		for i := range words {
			words[i] = f32(binary.LittleEndian.Uint32(raw[4*i:]))
		}
		gotTag, payload, err = readFrame(bufio.NewReader(bytes.NewReader(frameOf(Tag(tag), words))), buffer)
		if err != nil || gotTag != Tag(tag) || len(payload) != len(words) {
			t.Fatalf("encodeFrame output decoded to %v, %d elements, %v; want %v, %d elements", gotTag, len(payload), err, Tag(tag), len(words))
		}
		for i := range words {
			if math.Float32bits(payload[i]) != math.Float32bits(words[i]) {
				t.Fatalf("word %d: got %08x, want %08x", i, math.Float32bits(payload[i]), math.Float32bits(words[i]))
			}
		}
	})
}

// wordBytesLE is p's little-endian image, on any host.
func wordBytesLE(p []float32) []byte {
	b := make([]byte, 4*len(p))
	toWireLoop(b, p)
	return b
}

// BenchmarkTCPFrame is a round trip of one LeNet-sized frame (431,080
// floats, every parameter at once) over a 2-rank loopback TCP group.
func BenchmarkTCPFrame(b *testing.B) {
	n := 0
	for _, c := range lenetCounts {
		n += c
	}
	group := dialTCPGroup(b, 2)
	defer group[0].Close()
	defer group[1].Close()
	payload := make([]float32, n)
	buf := make([]float32, n)
	b.SetBytes(2 * 4 * int64(n))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tag := MakeTag(KindBcast, i%MaxIter, 0, 0)
		if err := group[0].Send(1, tag, payload); err != nil {
			b.Fatal(err)
		}
		if err := group[1].Recv(0, tag, buf); err != nil {
			b.Fatal(err)
		}
		if err := group[1].Send(0, tag, buf); err != nil {
			b.Fatal(err)
		}
		if err := group[0].Recv(1, tag, payload); err != nil {
			b.Fatal(err)
		}
	}
}

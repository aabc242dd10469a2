package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"unsafe"
)

// frameHeader is a data frame's header length: tag u64 LE, count u32 LE.
const frameHeader = 12

// maxFrameElems bounds a frame's declared payload length; anything
// larger is a corrupt or hostile header, not a real tensor.
const maxFrameElems = 1 << 26

// checkFrameLen refuses a payload too long for one frame, so the sender
// reports its own bug instead of the receiver failing the link as if the
// peer were corrupt.
func checkFrameLen(n int) error {
	if n > maxFrameElems {
		return fmt.Errorf("transport: payload of %d elements exceeds the frame limit of %d", n, maxFrameElems)
	}
	return nil
}

// hostLE reports whether this host stores a float32 in the wire's byte
// order, so that a payload's memory already is its wire image.
var hostLE = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// wordBytes is p's memory viewed as bytes (4 per element, host order).
func wordBytes(p []float32) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(p))), 4*len(p))
}

// toWire writes src's little-endian image into dst (4*len(src) bytes):
// one memmove on a little-endian host, a byte-swapping loop elsewhere.
func toWire(dst []byte, src []float32) {
	if hostLE {
		copy(dst, wordBytes(src))
		return
	}
	toWireLoop(dst, src)
}

func toWireLoop(dst []byte, src []float32) {
	for i, v := range src {
		binary.LittleEndian.PutUint32(dst[4*i:], math.Float32bits(v))
	}
}

// fromWire turns p, whose bytes were just read through wordBytes(p) as a
// little-endian image, into host-order values: nothing to do on a
// little-endian host, a byte-swapping loop elsewhere.
func fromWire(p []float32) {
	if !hostLE {
		fromWireLoop(p)
	}
}

func fromWireLoop(p []float32) {
	b := wordBytes(p)
	for i := range p {
		p[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
	}
}

// encodeFrame writes the data frame (tag, payload) into b, which must be
// exactly frameHeader+4*len(payload) bytes long.
func encodeFrame(b []byte, tag Tag, payload []float32) {
	binary.LittleEndian.PutUint64(b, uint64(tag))
	binary.LittleEndian.PutUint32(b[8:], uint32(len(payload)))
	toWire(b[frameHeader:], payload)
}

// readFrame reads one data frame from r. Once the header has declared
// the tag and the length n, buffer supplies the payload's n elements and
// the body is read straight into them. A declared length above
// maxFrameElems or a short body is an error.
func readFrame(r *bufio.Reader, buffer func(tag Tag, n int) []float32) (Tag, []float32, error) {
	hdr, err := r.Peek(frameHeader)
	if err != nil {
		return 0, nil, err
	}
	tag := Tag(binary.LittleEndian.Uint64(hdr))
	n := binary.LittleEndian.Uint32(hdr[8:])
	r.Discard(frameHeader)
	if n > maxFrameElems {
		return 0, nil, fmt.Errorf("transport: frame declares %d elements, limit %d", n, maxFrameElems)
	}
	payload := buffer(tag, int(n))
	if _, err := io.ReadFull(r, wordBytes(payload)); err != nil {
		return 0, nil, err
	}
	fromWire(payload)
	return tag, payload, nil
}

// fifo is a queue that reuses its backing array: pop advances a head
// index, and push slides the live entries back to the front before it
// would grow the array.
type fifo[T any] struct {
	buf  []T
	head int
}

func (q *fifo[T]) len() int { return len(q.buf) - q.head }

func (q *fifo[T]) push(v T) {
	if q.head > 0 && len(q.buf) == cap(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf, q.head = q.buf[:n], 0
	}
	q.buf = append(q.buf, v)
}

// pop removes and returns the oldest entry; the queue must not be empty.
func (q *fifo[T]) pop() T {
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	if q.head++; q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
	return v
}

// reset drops every entry.
func (q *fifo[T]) reset() {
	clear(q.buf)
	q.buf, q.head = q.buf[:0], 0
}

// freeList recycles buffers by exact length. It holds at most as many
// buffers of a length as were ever in use at once. Not safe for
// concurrent use: its owner guards it with its own mutex.
type freeList[T any] map[int][][]T

// get returns a buffer of length n: a recycled one if there is one.
func (l freeList[T]) get(n int) []T {
	s := l[n]
	if len(s) == 0 {
		return make([]T, n)
	}
	b := s[len(s)-1]
	s[len(s)-1] = nil
	l[n] = s[:len(s)-1]
	return b
}

// put hands b back for a later get of its length.
func (l freeList[T]) put(b []T) {
	if len(b) > 0 {
		l[len(b)] = append(l[len(b)], b)
	}
}

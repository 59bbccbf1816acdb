// Zero-copy frame assembly and pooled scratch buffers.
//
// WriteFrame's two-Write shape is fine for a buffered writer, but the
// mux hot path wants a single syscall per small frame and no per-frame
// allocations in steady state. The helpers here let callers assemble
// [header][payload] into a pooled buffer (small frames) or hand the
// header and payload to a vectored write (large frames) without ever
// copying the payload.
//
// Buffer-pool ownership rule (see DESIGN.md): a pooled buffer belongs
// to the goroutine that called GetBuffer until it calls PutBuffer,
// and must not be retained — directly or via sub-slices — after
// PutBuffer returns. Anything that escapes the call (a decoded message,
// a response payload) must be copied out first.
package proto

import (
	"bufio"
	"encoding/binary"
	"io"
	"net"
	"sync"
)

// ConnBufferSize is the one buffer size every connection gets: the
// servers' bufio reader and writer, and the rpcmux client's reader and
// small-frame threshold. It bounds what an idle connection pins, not
// the frame size: a frame larger than the buffer bypasses it on both
// sides (bufio.Reader reads a body at least its size straight into the
// body, and every writer sends such a frame vectored).
const ConnBufferSize = 64 << 10

// FrameWriter is a server's response writer: frames that fit in its
// ConnBufferSize buffer are coalesced there until Flush, and a larger
// frame flushes what is buffered and goes out as one vectored write, so
// its payload is never copied. Not safe for concurrent use.
type FrameWriter struct {
	conn io.Writer
	bw   *bufio.Writer
}

// NewFrameWriter returns a FrameWriter over conn.
func NewFrameWriter(conn io.Writer) *FrameWriter {
	return &FrameWriter{conn: conn, bw: bufio.NewWriterSize(conn, ConnBufferSize)}
}

// WriteFrame queues one frame.
func (w *FrameWriter) WriteFrame(t MsgType, id uint64, payload []byte) error {
	if FrameHeaderSize+len(payload) <= ConnBufferSize {
		return WriteFrame(w.bw, t, id, payload)
	}
	if err := w.bw.Flush(); err != nil {
		return err
	}
	return WriteFrameVectored(w.conn, t, id, payload)
}

// WriteBlobList queues one frame whose payload is the EncodeBlobList
// encoding of items, byte for byte. A frame larger than the buffer is
// sent as one vectored write of the header, the count and length
// varints and the items themselves, so the items are never copied; the
// caller must not modify them until WriteBlobList returns.
func (w *FrameWriter) WriteBlobList(t MsgType, id uint64, items [][]byte) error {
	size := BlobListSize(items)
	var header [FrameHeaderSize]byte
	if err := PutFrameHeader(header[:], t, id, size); err != nil {
		return err
	}
	if FrameHeaderSize+size <= ConnBufferSize {
		if w.bw.Available() < FrameHeaderSize+size {
			if err := w.bw.Flush(); err != nil {
				return err
			}
		}
		frame := append(w.bw.AvailableBuffer(), header[:]...)
		_, err := w.bw.Write(AppendBlobList(frame, items))
		return err
	}
	if err := w.bw.Flush(); err != nil {
		return err
	}

	// The header and every varint go into one pooled buffer before any
	// part is sliced from it, so the parts stay valid: it does not grow
	// again.
	buf := GetBuffer()
	prefix := binary.AppendUvarint(append((*buf)[:0], header[:]...), uint64(len(items)))
	for _, it := range items {
		prefix = binary.AppendUvarint(prefix, uint64(len(it)))
	}
	*buf = prefix
	off := FrameHeaderSize + uvarintLen(uint64(len(items)))
	parts := make(net.Buffers, 1, 2*len(items)+1)
	parts[0] = prefix[:off]
	for _, it := range items {
		n := uvarintLen(uint64(len(it)))
		parts = append(parts, prefix[off:off+n], it)
		off += n
	}
	_, err := parts.WriteTo(w.conn)
	PutBuffer(buf)
	return err
}

// Flush writes any buffered frames to the connection.
func (w *FrameWriter) Flush() error { return w.bw.Flush() }

// FrameHeaderSize is the number of bytes preceding a frame's payload on
// the wire: the 4-byte length prefix, the type byte, and the request ID.
const FrameHeaderSize = 4 + frameOverhead

// PutFrameHeader encodes a frame header for a payload of the given
// length into buf[:FrameHeaderSize]. buf must have at least
// FrameHeaderSize bytes; the payload itself is not touched, so callers
// can pair the header with the payload in a vectored write.
func PutFrameHeader(buf []byte, t MsgType, id uint64, payloadLen int) error {
	if payloadLen+frameOverhead > MaxFrameSize {
		return ErrFrameTooLarge
	}
	binary.BigEndian.PutUint32(buf[:4], uint32(payloadLen+frameOverhead))
	buf[4] = byte(t)
	binary.BigEndian.PutUint64(buf[5:FrameHeaderSize], id)
	return nil
}

// AppendFrame appends one complete frame to dst and returns the
// extended slice. When dst already has capacity this performs no
// allocation, so a pooled buffer can batch header+payload into a single
// Write call.
func AppendFrame(dst []byte, t MsgType, id uint64, payload []byte) ([]byte, error) {
	if len(payload)+frameOverhead > MaxFrameSize {
		return dst, ErrFrameTooLarge
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(payload)+frameOverhead))
	dst = append(dst, byte(t))
	dst = binary.BigEndian.AppendUint64(dst, id)
	return append(dst, payload...), nil
}

// WriteFrameVectored writes one frame as a vectored write: the header
// and payload go out in a single writev(2) when w is a *net.TCPConn
// (net.Buffers falls back to sequential writes otherwise), so large
// payloads are never copied into an intermediate buffer.
func WriteFrameVectored(w io.Writer, t MsgType, id uint64, payload []byte) error {
	var header [FrameHeaderSize]byte
	if err := PutFrameHeader(header[:], t, id, len(payload)); err != nil {
		return err
	}
	bufs := net.Buffers{header[:], payload}
	if _, err := bufs.WriteTo(w); err != nil {
		return err
	}
	return nil
}

// AppendBlobList is EncodeBlobList appending into a caller-supplied
// buffer: same wire format, zero allocations when dst has capacity.
func AppendBlobList(dst []byte, items [][]byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(items)))
	for _, it := range items {
		dst = binary.AppendUvarint(dst, uint64(len(it)))
		dst = append(dst, it...)
	}
	return dst
}

// BlobListSize returns the encoded size of a blob list, for presizing
// the destination buffer ahead of AppendBlobList.
func BlobListSize(items [][]byte) int {
	size := uvarintLen(uint64(len(items)))
	for _, it := range items {
		size += uvarintLen(uint64(len(it))) + len(it)
	}
	return size
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// maxPooledBuffer caps the capacity PutBuffer will recycle. Anything
// larger is dropped so one giant frame cannot pin megabytes in the pool
// for the life of the process.
const maxPooledBuffer = 1 << 20

var bufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

// GetBuffer returns a pooled scratch buffer with len 0. The caller owns
// it until PutBuffer; see the package comment for the ownership rule.
func GetBuffer() *[]byte {
	return bufPool.Get().(*[]byte)
}

// PutBuffer returns a buffer to the pool. The caller must not use b —
// or any slice derived from it — afterwards.
func PutBuffer(b *[]byte) {
	if b == nil || cap(*b) > maxPooledBuffer {
		return
	}
	*b = (*b)[:0]
	bufPool.Put(b)
}

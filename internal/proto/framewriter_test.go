package proto

import (
	"bytes"
	"encoding/hex"
	"testing"
)

// writeLog records the length of every Write it receives, so a test can
// tell a frame copied through the FrameWriter's buffer from one handed
// to the connection directly.
type writeLog struct {
	buf    bytes.Buffer
	writes []int
}

func (w *writeLog) Write(p []byte) (int, error) {
	w.writes = append(w.writes, len(p))
	return w.buf.Write(p)
}

// blobItems returns n items of size bytes each, every one distinct.
func blobItems(n, size int) [][]byte {
	items := make([][]byte, n)
	for i := range items {
		items[i] = bytes.Repeat([]byte{byte(i), byte(i >> 8), 0x5a}, size/3+1)[:size]
	}
	return items
}

// TestWriteBlobListKnownAnswer pins the vectored blob-list frame to the
// bytes AppendFrame(EncodeBlobList(items)) produces, for lists that fit
// the connection buffer, lists that overflow it, and lists past 1 MiB.
func TestWriteBlobListKnownAnswer(t *testing.T) {
	// A fixed vector: header (length 0x0e, type, ID 7), count 2, then
	// "ab" and an empty item.
	var small writeLog
	fw := NewFrameWriter(&small)
	if err := fw.WriteBlobList(MsgGetChunksResp, 7, [][]byte{[]byte("ab"), {}}); err != nil {
		t.Fatal(err)
	}
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}
	want := "0000000e" + hex.EncodeToString([]byte{byte(MsgGetChunksResp)}) + "0000000000000007" + "02" + "026162" + "00"
	if got := hex.EncodeToString(small.buf.Bytes()); got != want {
		t.Fatalf("frame = %s, want %s", got, want)
	}

	cases := []struct {
		name  string
		items [][]byte
	}{
		{"empty", [][]byte{}},
		{"small", blobItems(4, 1000)},
		{"over-buffer", blobItems(9, 24<<10)},
		{"over-1MiB", blobItems(40, 32<<10)},
		{"varint-boundaries", [][]byte{nil, make([]byte, 127), make([]byte, 128), make([]byte, 16383), make([]byte, 16384), make([]byte, 70000)}},
	}
	for _, tc := range cases {
		var sink writeLog
		fw := NewFrameWriter(&sink)
		if err := fw.WriteBlobList(MsgGetChunksResp, 99, tc.items); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if err := fw.Flush(); err != nil {
			t.Fatal(err)
		}
		want, err := AppendFrame(nil, MsgGetChunksResp, 99, EncodeBlobList(tc.items))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(sink.buf.Bytes(), want) {
			t.Fatalf("%s: vectored frame differs from AppendFrame(EncodeBlobList)", tc.name)
		}
	}
}

// TestFrameWriterLargeFramesBypassBuffer checks that a frame larger
// than ConnBufferSize flushes the small frames queued before it (so
// order holds) and then reaches the connection as its own writes, the
// payload never copied into the buffer.
func TestFrameWriterLargeFramesBypassBuffer(t *testing.T) {
	var sink writeLog
	fw := NewFrameWriter(&sink)
	large := bytes.Repeat([]byte("L"), ConnBufferSize)
	items := blobItems(3, ConnBufferSize/2)

	steps := []func() error{
		func() error { return fw.WriteFrame(MsgStatsResp, 1, []byte("small-1")) },
		func() error { return fw.WriteFrame(MsgGetBlobResp, 2, large) },
		func() error { return fw.WriteFrame(MsgStatsResp, 3, []byte("small-2")) },
		func() error { return fw.WriteBlobList(MsgGetChunksResp, 4, items) },
		fw.Flush,
	}
	for _, step := range steps {
		if err := step(); err != nil {
			t.Fatal(err)
		}
	}

	// The payload of the large frame and each blob-list item must each
	// have arrived as one Write of exactly their length.
	counts := map[int]int{}
	for _, n := range sink.writes {
		counts[n]++
	}
	if counts[len(large)] != 1 || counts[len(items[0])] != len(items) {
		t.Fatalf("large payloads were copied through the buffer: writes %v", sink.writes)
	}

	wantFrames := []struct {
		typ     MsgType
		id      uint64
		payload []byte
	}{
		{MsgStatsResp, 1, []byte("small-1")},
		{MsgGetBlobResp, 2, large},
		{MsgStatsResp, 3, []byte("small-2")},
		{MsgGetChunksResp, 4, EncodeBlobList(items)},
	}
	for _, w := range wantFrames {
		typ, id, body, err := ReadFrame(&sink.buf)
		if err != nil {
			t.Fatal(err)
		}
		if typ != w.typ || id != w.id || !bytes.Equal(body, w.payload) {
			t.Fatalf("frame %d out of order or corrupted (typ %v)", w.id, typ)
		}
	}
	if sink.buf.Len() != 0 {
		t.Fatalf("%d trailing bytes", sink.buf.Len())
	}
}

// TestDecodeBlobListAliasesInput checks that decoded items are
// sub-slices of the input, not copies, and that each item's capacity
// ends with it, so appending to one cannot overwrite its neighbour.
func TestDecodeBlobListAliasesInput(t *testing.T) {
	items := [][]byte{[]byte("first"), []byte("second"), []byte("third")}
	enc := EncodeBlobList(items)
	got, err := DecodeBlobList(enc, len(items))
	if err != nil {
		t.Fatal(err)
	}
	for i, it := range got {
		if !bytes.Equal(it, items[i]) {
			t.Fatalf("item %d = %q, want %q", i, it, items[i])
		}
		if cap(it) != len(it) {
			t.Fatalf("item %d has capacity %d past its length %d", i, cap(it), len(it))
		}
	}
	_ = append(got[0], "-grown"...)
	if !bytes.Equal(got[1], items[1]) {
		t.Fatal("appending to one item overwrote the next")
	}
	// Items alias the input: clearing the input clears them.
	clear(enc)
	for i, it := range got {
		if !bytes.Equal(it, make([]byte, len(it))) {
			t.Fatalf("item %d is a copy, not a sub-slice of the input", i)
		}
	}
}

package server

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"

	"repro/internal/fingerprint"
	"repro/internal/proto"
	"repro/internal/retry"
	"repro/internal/store"
)

// sizedUploads returns n distinct chunks of size bytes each.
func sizedUploads(n, size int, tag string) []proto.ChunkUpload {
	out := make([]proto.ChunkUpload, n)
	for i := range out {
		unit := []byte(fmt.Sprintf("%s-%d|", tag, i))
		data := bytes.Repeat(unit, size/len(unit)+1)[:size]
		out[i] = proto.ChunkUpload{FP: fingerprint.New(data), Data: data}
	}
	return out
}

func chunkFPs(chunks []proto.ChunkUpload) []fingerprint.Fingerprint {
	fps := make([]fingerprint.Fingerprint, len(chunks))
	for i, c := range chunks {
		fps[i] = c.FP
	}
	return fps
}

func chunkDatas(chunks []proto.ChunkUpload) [][]byte {
	datas := make([][]byte, len(chunks))
	for i, c := range chunks {
		datas[i] = c.Data
	}
	return datas
}

// wireFixture is a server holding chunks in both places dedup.Store.Get
// serves from: sealed containers (sub-slices and point reads) and the
// open container (copies).
type wireFixture struct {
	srv                *Server
	addr               string
	small, mid, large  []proto.ChunkUpload
	sealedAndOpenLarge []proto.ChunkUpload
}

func newWireFixture(t *testing.T) *wireFixture {
	t.Helper()
	srv, addr := startServer(t)
	c := dialTest(t, addr)
	f := &wireFixture{
		srv:   srv,
		addr:  addr,
		small: sizedUploads(4, 1000, "small"),           // response < ConnBufferSize
		mid:   sizedUploads(8, 24<<10, "mid"),           // > ConnBufferSize, < 1 MiB
		large: sizedUploads(40, 32<<10, "large-sealed"), // > 1 MiB
	}
	for _, batch := range [][]proto.ChunkUpload{f.small, f.mid, f.large} {
		if _, err := c.PutChunks(ctx, batch); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	open := sizedUploads(20, 32<<10, "large-open")
	if _, err := c.PutChunks(ctx, open); err != nil {
		t.Fatal(err)
	}
	f.sealedAndOpenLarge = append(append([]proto.ChunkUpload(nil), f.large...), open...)
	return f
}

// TestGetChunksResponseMatchesEncodeBlobList is the wire known-answer
// check for the copy-free GetChunks path: the raw response frame must
// equal the frame the server used to build with EncodeBlobList.
func TestGetChunksResponseMatchesEncodeBlobList(t *testing.T) {
	f := newWireFixture(t)
	conn, err := net.Dial("tcp", f.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for id, chunks := range [][]proto.ChunkUpload{f.small, f.mid, f.sealedAndOpenLarge, nil} {
		req := proto.EncodeGetChunksReq(chunkFPs(chunks))
		if err := proto.WriteFrame(conn, proto.MsgGetChunksReq, uint64(id), req); err != nil {
			t.Fatal(err)
		}
		want, err := proto.AppendFrame(nil, proto.MsgGetChunksResp, uint64(id), proto.EncodeBlobList(chunkDatas(chunks)))
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(want))
		if _, err := io.ReadFull(conn, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("request %d (%d chunks): response frame differs from EncodeBlobList", id, len(chunks))
		}
	}
}

// TestLargeFramesInterleaved mixes small frames with request and
// response frames larger than ConnBufferSize and larger than 1 MiB on
// one multiplexed connection. Every response must round-trip byte for
// byte; run under -race it also checks the writer's buffer handoff.
func TestLargeFramesInterleaved(t *testing.T) {
	f := newWireFixture(t)
	c := dialTest(t, f.addr)
	bigBlob := bytes.Repeat([]byte("blob-over-1MiB|"), (3<<20)/15)
	if err := c.PutBlob(ctx, store.NSRecipes, "big", bigBlob); err != nil {
		t.Fatal(err)
	}
	if err := c.PutBlob(ctx, store.NSRecipes, "tiny", []byte("tiny")); err != nil {
		t.Fatal(err)
	}

	getChunks := func(chunks []proto.ChunkUpload) func() error {
		return func() error {
			got, err := c.GetChunks(ctx, chunkFPs(chunks))
			if err != nil {
				return err
			}
			for i := range chunks {
				if !bytes.Equal(got[i], chunks[i].Data) {
					return fmt.Errorf("chunk %d of %d corrupted", i, len(chunks))
				}
			}
			return nil
		}
	}
	getBlob := func(name string, want []byte) func() error {
		return func() error {
			got, err := c.GetBlob(ctx, store.NSRecipes, name)
			if err != nil {
				return err
			}
			if !bytes.Equal(got, want) {
				return fmt.Errorf("blob %s corrupted", name)
			}
			return nil
		}
	}
	ops := []func() error{
		getChunks(f.small),
		getChunks(f.mid),
		getChunks(f.sealedAndOpenLarge),
		getBlob("big", bigBlob),
		getBlob("tiny", []byte("tiny")),
		func() error { return c.PutBlob(ctx, store.NSRecipes, "big", bigBlob) },
		func() error { _, err := c.Stats(ctx); return err },
	}

	var wg sync.WaitGroup
	errs := make(chan error, len(ops)*2)
	for g := 0; g < len(ops)*2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				if err := ops[(g+i)%len(ops)](); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// heapInuse returns the live heap after a full collection.
func heapInuse() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapInuse
}

// TestIdleConnectionMemory bounds what an idle storage connection pins:
// the client's rpcmux reader plus the server's reader and writer, one
// proto.ConnBufferSize each, and small change.
func TestIdleConnectionMemory(t *testing.T) {
	_, addr := startServer(t)
	const conns = 200
	const budget = 256 << 10
	before := heapInuse()
	clients := make([]*Client, conns)
	for i := range clients {
		c, err := DialStore(ctx, addr, nil, retry.Policy{})
		if err != nil {
			t.Fatal(err)
		}
		clients[i] = c
		// A round trip proves the server side of the connection is up.
		if _, err := c.Stats(ctx); err != nil {
			t.Fatal(err)
		}
	}
	grown := heapInuse() - before
	for _, c := range clients {
		c.Close()
	}
	per := grown / conns
	t.Logf("%d idle connections: heap grew %d KiB, %d KiB per connection", conns, grown>>10, per>>10)
	if per > budget {
		t.Fatalf("idle connection pins %d KiB, budget %d KiB", per>>10, budget>>10)
	}
}

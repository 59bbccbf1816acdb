package main

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"sync/atomic"
	"time"
)

// blockSize is the unit of generated content. A file is a list of block
// IDs; a block's bytes are a pure function of the seed and its ID, so a
// file's bytes can be regenerated at any offset without being stored,
// two files share content exactly when they share block IDs, and an
// in-place edit is a block ID replaced by a fresh one.
const blockSize = 64 << 10

// content generates block bytes from the seed: block id is the AES-CTR
// keystream under a seed-derived key with the ID as the counter block.
type content struct {
	block cipher.Block
}

func newContent(seed uint64) *content {
	var s [8]byte
	binary.BigEndian.PutUint64(s[:], seed)
	key := sha256.Sum256(append([]byte("reedbench content"), s[:]...))
	b, err := aes.NewCipher(key[:])
	if err != nil {
		panic(err) // a 32-byte key is always valid
	}
	return &content{block: b}
}

// fill writes block id's bytes into dst (len blockSize).
func (c *content) fill(dst []byte, id uint64) {
	var iv [aes.BlockSize]byte
	binary.BigEndian.PutUint64(iv[:8], id)
	clear(dst)
	cipher.NewCTR(c.block, iv[:]).XORKeyStream(dst, dst)
}

// fileSpec is one version of a file: its blocks and its size. The last
// block may be cut short.
type fileSpec struct {
	blocks []uint64
	size   int64
}

// ids hands out fresh block IDs.
type ids struct{ next uint64 }

func (g *ids) take(n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = g.next
		g.next++
	}
	return out
}

// newSpec makes a file of size bytes from fresh blocks.
func newSpec(g *ids, size int64) fileSpec {
	n := int((size + blockSize - 1) / blockSize)
	return fileSpec{blocks: g.take(n), size: size}
}

// edit returns a copy of s with k seeded blocks replaced by fresh ones:
// an in-place edit that keeps the size.
func (s fileSpec) edit(g *ids, rng *rand.Rand, k int) fileSpec {
	out := fileSpec{blocks: append([]uint64(nil), s.blocks...), size: s.size}
	for i := 0; i < k; i++ {
		out.blocks[rng.IntN(len(out.blocks))] = g.take(1)[0]
	}
	return out
}

// ioTime accumulates the generator's time on one operation, so the
// trace can separate the benchmark's own time from the program's. Reads
// before the first rewind (an upload's whole-file pre-hash) count in
// pre, everything else in post.
type ioTime struct{ pre, post atomic.Int64 }

// fileReader streams a fileSpec's bytes. It is an io.ReadSeeker, as a
// file on disk would be, so uploads take the whole-file pre-check.
type fileReader struct {
	c       *content
	spec    fileSpec
	off     int64
	buf     []byte
	cur     int // block index held in buf, -1 for none
	tm      *ioTime
	rewound bool
}

func (c *content) reader(spec fileSpec, tm *ioTime) *fileReader {
	return &fileReader{c: c, spec: spec, buf: make([]byte, blockSize), cur: -1, tm: tm}
}

func (r *fileReader) Read(p []byte) (int, error) {
	if r.off >= r.spec.size {
		return 0, io.EOF
	}
	var start time.Time
	if r.tm != nil {
		start = time.Now()
	}
	n := 0
	for n < len(p) && r.off < r.spec.size {
		bi := int(r.off / blockSize)
		if bi != r.cur {
			r.c.fill(r.buf, r.spec.blocks[bi])
			r.cur = bi
		}
		within := r.off % blockSize
		end := int64(blockSize)
		if rest := r.spec.size - int64(bi)*blockSize; rest < end {
			end = rest
		}
		m := copy(p[n:], r.buf[within:end])
		n += m
		r.off += int64(m)
	}
	if r.tm != nil {
		if r.rewound {
			r.tm.post.Add(int64(time.Since(start)))
		} else {
			r.tm.pre.Add(int64(time.Since(start)))
		}
	}
	return n, nil
}

func (r *fileReader) Seek(offset int64, whence int) (int64, error) {
	switch whence {
	case io.SeekStart:
		r.rewound = true
	case io.SeekCurrent:
		offset += r.off
	case io.SeekEnd:
		offset += r.spec.size
	default:
		return 0, errors.New("reedbench: bad whence")
	}
	if offset < 0 {
		return 0, errors.New("reedbench: negative offset")
	}
	r.off = offset
	return offset, nil
}

// verifier is the sink of a restore: it compares every byte against the
// regenerated source and counts them.
type verifier struct {
	src   *fileReader
	want  []byte
	n     int64
	wrong bool
	tm    *ioTime
}

func (c *content) verifier(spec fileSpec, tm *ioTime) *verifier {
	return &verifier{src: c.reader(spec, nil), tm: tm}
}

func (v *verifier) Write(p []byte) (int, error) {
	var start time.Time
	if v.tm != nil {
		start = time.Now()
	}
	if cap(v.want) < len(p) {
		v.want = make([]byte, len(p))
	}
	want := v.want[:len(p)]
	m, _ := io.ReadFull(v.src, want)
	if m != len(p) || !bytes.Equal(want, p) {
		v.wrong = true
	}
	v.n += int64(len(p))
	if v.tm != nil {
		v.tm.post.Add(int64(time.Since(start)))
	}
	return len(p), nil
}

// check reports whether the restore produced exactly the source bytes.
func (v *verifier) check() error {
	if v.wrong {
		return errors.New("restored bytes differ from the source")
	}
	if v.n != v.src.spec.size {
		return fmt.Errorf("restored %d bytes, want %d", v.n, v.src.spec.size)
	}
	return nil
}

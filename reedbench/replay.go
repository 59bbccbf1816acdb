package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/abe"
	"repro/internal/chunker"
	"repro/internal/core"
	"repro/internal/fingerprint"
	"repro/internal/keyreg"
	"repro/internal/oprf"
	"repro/internal/policy"
)

// Replay sizes: enough work that each rate is steady, little enough
// that the replay adds a few seconds to a traced run.
const (
	replayBytes    = 32 * mb
	replayElements = 256
	replayABE      = 3
	replayKeyreg   = 16
)

// rates are per-layer costs measured by replaying the run's own inputs
// through each layer's public API, single-threaded.
type rates struct {
	chunkMBps, fpMBps               float64
	blindUS, evaluateUS, finalizeUS float64
	encryptMBps, decryptMBps        float64
	abeEncryptMS                    map[int]float64 // by policy leaf count
	abeDecryptMS                    float64
	windMS, unwindMS                float64
}

// replayLayers measures rates on the run's file bytes (the first
// replayBytes of the timed operations' files), the run's OPRF key, the
// run's policies and an owner's key-regression chain.
func replayLayers(r *run) (rates, error) {
	var rt rates
	var buf []byte
	for _, o := range r.ops {
		if len(buf) >= replayBytes {
			break
		}
		b, err := io.ReadAll(io.LimitReader(r.data.reader(o.spec, nil), int64(replayBytes-len(buf))))
		if err != nil {
			return rt, err
		}
		buf = append(buf, b...)
	}
	if len(buf) == 0 {
		return rt, errors.New("replay: the run moved no file bytes")
	}

	// Chunking, then fingerprinting of the resulting chunks.
	start := time.Now()
	ch, err := chunker.NewRabin(bytes.NewReader(buf), benchChunking)
	if err != nil {
		return rt, err
	}
	var chunks [][]byte
	for {
		c, err := ch.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return rt, err
		}
		chunks = append(chunks, append([]byte(nil), c...))
	}
	rt.chunkMBps = float64(len(buf)) / mb / time.Since(start).Seconds()
	fps := make([]fingerprint.Fingerprint, len(chunks))
	start = time.Now()
	for i, c := range chunks {
		fps[i] = fingerprint.New(c)
	}
	rt.fpMBps = float64(len(buf)) / mb / time.Since(start).Seconds()

	// OPRF per element, with the run's key.
	n := min(replayElements, len(chunks))
	params := r.d.kmKey.PublicParams()
	blinded := make([][]byte, n)
	unblinders := make([]*oprf.Unblinder, n)
	start = time.Now()
	for i := 0; i < n; i++ {
		blinded[i], unblinders[i], err = oprf.Blind(params, fps[i][:], nil)
		if err != nil {
			return rt, err
		}
	}
	rt.blindUS = perElementUS(time.Since(start), n)
	evaluated := make([][]byte, n)
	start = time.Now()
	for i := 0; i < n; i++ {
		if evaluated[i], err = r.d.kmKey.Evaluate(blinded[i]); err != nil {
			return rt, err
		}
	}
	rt.evaluateUS = perElementUS(time.Since(start), n)
	keys := make([][]byte, n)
	start = time.Now()
	for i := 0; i < n; i++ {
		if keys[i], err = oprf.Finalize(params, unblinders[i], evaluated[i]); err != nil {
			return rt, err
		}
	}
	rt.finalizeUS = perElementUS(time.Since(start), n)

	// CAONT on the same chunks under their OPRF keys.
	codec, err := core.New(benchScheme)
	if err != nil {
		return rt, err
	}
	pkgs := make([]core.Package, n)
	var plain int64
	start = time.Now()
	for i := 0; i < n; i++ {
		if pkgs[i], err = codec.Encrypt(chunks[i], keys[i]); err != nil {
			return rt, err
		}
		plain += int64(len(chunks[i]))
	}
	rt.encryptMBps = float64(plain) / mb / time.Since(start).Seconds()
	start = time.Now()
	for i := 0; i < n; i++ {
		out, err := codec.Decrypt(pkgs[i])
		if err != nil {
			return rt, err
		}
		if !bytes.Equal(out, chunks[i]) {
			return rt, errors.New("replay: CAONT round trip changed a chunk")
		}
	}
	rt.decryptMBps = float64(plain) / mb / time.Since(start).Seconds()

	// CP-ABE on the run's policies, sealing a key state as the client
	// does, and opening it with a member's key.
	var owner *keyreg.Owner
	for _, id := range sortedUsers(r.d) {
		if u := r.d.users[id]; u.owner != nil {
			owner = u.owner
			break
		}
	}
	state := owner.Current().Marshal()
	rt.abeEncryptMS = make(map[int]float64)
	var lastCT *abe.Ciphertext
	var lastPol *policy.Node
	for _, o := range r.ops {
		if o.pol == nil {
			continue
		}
		leaves := o.pol.CountLeaves()
		if _, done := rt.abeEncryptMS[leaves]; done {
			continue
		}
		pub := r.d.pub.PublicKeys(o.pol.Leaves())
		start = time.Now()
		for i := 0; i < replayABE; i++ {
			if lastCT, err = abe.Encrypt(pub, o.pol, state, nil); err != nil {
				return rt, err
			}
		}
		rt.abeEncryptMS[leaves] = msPer(time.Since(start), replayABE)
		lastPol = o.pol
	}
	if lastCT != nil {
		member := r.d.users[lastPol.Leaves()[0]]
		start = time.Now()
		for i := 0; i < replayABE; i++ {
			if _, err := abe.Decrypt(member.priv, lastCT); err != nil {
				return rt, fmt.Errorf("replay: abe decrypt: %w", err)
			}
		}
		rt.abeDecryptMS = msPer(time.Since(start), replayABE)
	}

	// Key regression on an owner's chain (the run is over, so winding
	// it further changes nothing the run checks).
	var states []keyreg.State
	start = time.Now()
	for i := 0; i < replayKeyreg; i++ {
		states = append(states, owner.Wind())
	}
	rt.windMS = msPer(time.Since(start), replayKeyreg)
	pub := owner.Public()
	start = time.Now()
	for _, st := range states {
		if _, err := keyreg.Unwind(pub, st, st.Version-1); err != nil {
			return rt, err
		}
	}
	rt.unwindMS = msPer(time.Since(start), replayKeyreg)
	return rt, nil
}

func perElementUS(d time.Duration, n int) float64 {
	return float64(d) / float64(time.Microsecond) / float64(n)
}

func msPer(d time.Duration, n int) float64 {
	return float64(d) / float64(time.Millisecond) / float64(n)
}

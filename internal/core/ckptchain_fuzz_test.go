package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"

	"nestdiff/internal/geom"
)

// looseBlob is a v2 blob taken apart without checking any CRC. pinned
// marks a header the script edited itself, which re-sealing then leaves
// alone instead of re-linking.
type looseBlob struct {
	h      blobHeader
	recs   []record
	pinned bool
}

// looseOpen splits data into blobs and records by their length fields
// alone. It reports false when the framing does not add up (a v1 envelope,
// say), in which case the script edits data as plain bytes.
func looseOpen(data []byte) ([]looseBlob, bool) {
	var blobs []looseBlob
	for len(data) > 0 {
		if len(data) < ckptV2HeaderLen || !bytes.Equal(data[:4], ckptMagic[:]) || data[4] != ckptEnvelopeV2 {
			return nil, false
		}
		plen := binary.LittleEndian.Uint64(data[5:13])
		if plen > uint64(len(data)-ckptV2HeaderLen) {
			return nil, false
		}
		b := looseBlob{h: blobHeader{
			delta: data[17]&ckptFlagDelta != 0,
			seq:   binary.LittleEndian.Uint32(data[18:22]),
			link:  binary.LittleEndian.Uint32(data[22:26]),
		}}
		payload := data[ckptV2HeaderLen : ckptV2HeaderLen+int(plen)]
		for len(payload) > 0 {
			if len(payload) < recHeaderLen+4 {
				return nil, false
			}
			rlen := uint64(binary.LittleEndian.Uint32(payload[1:5]))
			if rlen > uint64(len(payload)-recHeaderLen-4) {
				return nil, false
			}
			b.recs = append(b.recs, record{kind: payload[0], payload: payload[recHeaderLen : recHeaderLen+int(rlen)]})
			payload = payload[recHeaderLen+int(rlen)+4:]
		}
		blobs = append(blobs, b)
		data = data[ckptV2HeaderLen+int(plen):]
	}
	return blobs, true
}

// chainOpLen is the size of one script step: blob selector, record
// selector, opcode, a 16-bit argument and a value byte.
const chainOpLen = 6

// Script opcodes (taken modulo chainOps).
const (
	opXorByte   = iota // payload[arg] ^= val
	opSetKind          // record kind = val
	opTruncate         // payload = payload[:arg]
	opExtend           // payload += val%64 zero bytes
	opDropRec          // remove the record
	opDupRec           // repeat the record
	opSetSeq           // blob seq = arg (and leave its link alone)
	opFlipDelta        // toggle the blob's delta flag
	opDropBlob         // remove the blob
	chainOps
)

// editChain applies one script step to the blob and record its selectors
// pick. Record payloads may alias the shared source chain, so every edit
// copies before it writes.
func editChain(blobs []looseBlob, step []byte) []looseBlob {
	if len(blobs) == 0 {
		return blobs
	}
	bi := int(step[0]) % len(blobs)
	b := &blobs[bi]
	arg, val := int(binary.LittleEndian.Uint16(step[3:5])), step[5]
	switch op := step[2] % chainOps; op {
	case opSetSeq:
		b.h.seq, b.pinned = uint32(arg), true
	case opFlipDelta:
		b.h.delta, b.pinned = !b.h.delta, true
	case opDropBlob:
		blobs = append(blobs[:bi:bi], blobs[bi+1:]...)
	default:
		if len(b.recs) == 0 {
			break
		}
		ri := int(step[1]) % len(b.recs)
		r := &b.recs[ri]
		switch op {
		case opXorByte:
			if len(r.payload) > 0 {
				r.payload = bytes.Clone(r.payload)
				r.payload[arg%len(r.payload)] ^= val
			}
		case opSetKind:
			r.kind = val
		case opTruncate:
			r.payload = r.payload[:arg%(len(r.payload)+1)]
		case opExtend:
			r.payload = append(bytes.Clone(r.payload), make([]byte, val%64)...)
		case opDropRec:
			b.recs = append(b.recs[:ri:ri], b.recs[ri+1:]...)
		case opDupRec:
			b.recs = append(b.recs[:ri+1:ri+1], b.recs[ri:]...)
		}
	}
	return blobs
}

// FuzzCheckpointChain drives the checkpoint reader with chains whose
// content is arbitrary but whose checksums all hold. An input is a source —
// the real base+2-delta chain, a retired v1 envelope, or a base whose model
// dimensions overflow their product — and an edit script: the source is
// opened without CRC checks, edited step by step, and re-sealed with the
// package's own framing, each delta re-linked to the blob before it unless
// the script set its header itself. (A source that is not a v2 chain gets
// its bytes flipped in place.) Whatever comes out:
//
//   - nothing panics;
//   - the validating walk and the restoring walk agree — what
//     ValidateCheckpoint passes, RestorePipeline does not reject for its
//     structure, and a broken tail is the same tail to both;
//   - when the blobs the walk keeps are untouched blobs of the real chain,
//     RestorePipeline returns a pipeline at the last kept blob's step — so
//     ErrDeltaChainBroken really does mean "restorable, earlier".
//
// A restore may still fail on content no structure check can judge (a
// flipped sample fails the replay CRC, a flipped metadata byte decodes to
// an invalid configuration); that is an error, never a panic.
func FuzzCheckpointChain(f *testing.F) {
	g := geom.NewGrid(8, 6)
	net, model, oracle := testEnv(f, g)

	// The real chain: a base at step 60 and two replay deltas.
	p := checkpointPipeline(f, g, Diffusion, false)
	cw := NewCheckpointWriter(CheckpointWriterOptions{MaxDeltas: 64})
	var chain []byte
	var pristine [][]byte
	var steps []int
	for _, run := range []int{60, 5, 5} {
		if err := p.Run(run); err != nil {
			f.Fatal(err)
		}
		blob, _, err := cw.Encode(p)
		if err != nil {
			f.Fatal(err)
		}
		pristine = append(pristine, bytes.Clone(blob))
		steps = append(steps, p.StepCount())
		chain = append(chain, blob...)
	}
	// A well-formed envelope of the retired v1 generation (17-byte header,
	// one opaque payload): the reader must refuse it however it is mangled.
	v1 := append([]byte("NDCP\x01"), make([]byte, 12+120)...)
	binary.LittleEndian.PutUint64(v1[5:13], 120)
	binary.LittleEndian.PutUint32(v1[13:17], crc32.Checksum(v1[17:], ckptCRC))
	bh, brecs := openBlob(f, pristine[0])
	brecs[1].payload = overflowWitnessField()
	sources := [][]byte{chain, v1, sealBlob(bh, brecs)}

	for src := range sources {
		f.Add(uint8(src), []byte{})
	}
	for _, kind := range retiredKinds {
		// One blob per retired kind: the final delta's directive renumbered,
		// and the same done to the base's model record.
		f.Add(uint8(0), []byte{2, 1, opSetKind, 0, 0, kind})
		f.Add(uint8(0), []byte{0, 1, opSetKind, 0, 0, kind})
	}

	f.Fuzz(func(t *testing.T, source uint8, script []byte) {
		data := sources[int(source)%len(sources)]
		var blobs [][]byte
		if loose, ok := looseOpen(data); ok {
			for ; len(script) >= chainOpLen; script = script[chainOpLen:] {
				loose = editChain(loose, script)
			}
			data = nil
			var prev blobHeader
			for i, b := range loose {
				h := b.h
				if i > 0 && h.delta && !b.pinned {
					h.seq, h.link = prev.seq+1, prev.crc
				}
				sealed := sealBlob(h, b.recs)
				prev = blobHeader{seq: h.seq, crc: binary.LittleEndian.Uint32(sealed[13:17])}
				blobs = append(blobs, sealed)
				data = append(data, sealed...)
			}
		} else {
			data = bytes.Clone(data)
			for ; len(script) >= chainOpLen; script = script[chainOpLen:] {
				at := int(binary.LittleEndian.Uint32(script[0:4])) % len(data)
				data[at] ^= script[5]
			}
		}

		verr := ValidateCheckpoint(data)
		usable := verr == nil || errors.Is(verr, ErrDeltaChainBroken)
		if len(data) > 4 && data[4] == ckptEnvelopeV2 {
			st, werr := walkChain(data, true)
			if (werr == nil) != usable {
				t.Fatalf("validating walk: %v; restoring walk: %v", verr, werr)
			}
			if werr != nil {
				return
			}
			if (st.broken == nil) != (verr == nil) {
				t.Fatalf("validating walk: %v; restoring walk broke off with: %v", verr, st.broken)
			}
			// A directive may name any step; keep the fuzzer from replaying
			// its way to four billion.
			if st.replay != nil && st.replay.step-st.meta.Step > 64 {
				return
			}
		}
		restored, rerr := RestorePipeline(bytes.NewReader(data), net, model, oracle)
		if !usable {
			if rerr == nil {
				t.Fatalf("RestorePipeline accepted what ValidateCheckpoint rejects: %v", verr)
			}
			return
		}

		// How many leading blobs does the reader keep, and are they all
		// blobs of the real chain?
		kept := 0
		for kept < len(blobs) && ValidateCheckpoint(bytes.Join(blobs[:kept+1], nil)) == nil {
			kept++
		}
		if kept == 0 || kept > len(pristine) {
			return
		}
		for i := 0; i < kept; i++ {
			if !bytes.Equal(blobs[i], pristine[i]) {
				return
			}
		}
		if rerr != nil {
			t.Fatalf("chain with %d intact original blobs (validate: %v) did not restore: %v", kept, verr, rerr)
		}
		if restored.StepCount() != steps[kept-1] {
			t.Fatalf("restored at step %d, want %d (blob %d of the chain)", restored.StepCount(), steps[kept-1], kept-1)
		}
	})
}

package core

import (
	"bytes"
	"errors"
	"hash/crc32"
	"testing"

	"nestdiff/internal/geom"
)

// cutBlob encodes one checkpoint blob and returns a stable copy (the
// writer's arenas recycle every other Encode, so tests that accumulate a
// chain must copy each blob before the next cut).
func cutBlob(t *testing.T, cw *CheckpointWriter, p *Pipeline) ([]byte, bool) {
	t.Helper()
	blob, full, err := cw.Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	return append([]byte(nil), blob...), full
}

// sealBlob assembles a v2 blob from records with the package's own framing,
// so a test can hand the reader content no writer produces behind CRCs
// that all check out. h supplies the chain position (delta, seq, link).
func sealBlob(h blobHeader, recs []record) []byte {
	buf := make([]byte, ckptV2HeaderLen)
	for _, r := range recs {
		var start int
		buf, start = beginRecord(buf, r.kind)
		buf = append(buf, r.payload...)
		buf = endRecord(buf, start)
	}
	payload := buf[ckptV2HeaderLen:]
	h.payloadLen = uint64(len(payload))
	h.crc = crc32.Checksum(payload, ckptCRC)
	putBlobHeader(buf, h)
	return buf
}

// openBlob parses a valid blob into its header and records.
func openBlob(t testing.TB, blob []byte) (blobHeader, []record) {
	t.Helper()
	h, payload, _, err := parseBlob(blob)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := splitRecords(payload, nil)
	if err != nil {
		t.Fatal(err)
	}
	return h, recs
}

// retiredKinds are the record numbers of the field-diff delta records
// (recModelXOR, recNestXOR, recNestRemove) no writer emits any more.
var retiredKinds = []byte{3, 5, 6}

// runDeltaChainRoundTrip cuts a full base at step k, then delta
// checkpoints every interval steps, restores the assembled chain, and
// verifies the resumed run reproduces the uninterrupted run's adaptation
// events and final nest set exactly — bit-identical to the full-save path.
func runDeltaChainRoundTrip(t *testing.T, distributed bool) {
	t.Helper()
	const k, segs, interval, total = 60, 4, 20, 180
	const cut = k + segs*interval
	g := geom.NewGrid(8, 6)

	ref := checkpointPipeline(t, g, Diffusion, distributed)
	if err := ref.Run(total); err != nil {
		t.Fatal(err)
	}

	chk := checkpointPipeline(t, g, Diffusion, distributed)
	cw := NewCheckpointWriter(CheckpointWriterOptions{MaxDeltas: 64})
	if err := chk.Run(k); err != nil {
		t.Fatal(err)
	}
	base, full := cutBlob(t, cw, chk)
	if !full {
		t.Fatal("first checkpoint cut was not a full base")
	}
	chain := append([]byte(nil), base...)
	deltaBytes := 0
	for i := 0; i < segs; i++ {
		if err := chk.Run(interval); err != nil {
			t.Fatal(err)
		}
		blob, full := cutBlob(t, cw, chk)
		if full {
			t.Fatalf("cut %d was a full base, want a delta (MaxDeltas 64)", i+1)
		}
		deltaBytes += len(blob)
		chain = append(chain, blob...)
	}
	eventsAtCut := len(chk.Events())

	// Replay deltas must be materially smaller than the base they extend —
	// that is the point of the chain.
	if avg := deltaBytes / segs; avg >= len(base)/20 {
		t.Fatalf("average replay delta blob %d bytes, want well under 1/20 of the %d-byte base", avg, len(base))
	}

	// The assembled chain is structurally valid: linked seq/crc blobs.
	if err := ValidateCheckpoint(chain); err != nil {
		t.Fatalf("assembled chain failed validation: %v", err)
	}
	off := 0
	var prevCRC uint32
	for seq := uint32(0); off < len(chain); seq++ {
		h, _, size, err := parseBlob(chain[off:])
		if err != nil {
			t.Fatalf("blob %d: %v", seq, err)
		}
		if h.seq != seq || h.delta != (seq > 0) || h.link != prevCRC {
			t.Fatalf("blob %d header {seq %d delta %v link %#x}, want {seq %d delta %v link %#x}",
				seq, h.seq, h.delta, h.link, seq, seq > 0, prevCRC)
		}
		prevCRC = h.crc
		off += size
	}

	net, model, oracle := testEnv(t, g)
	resumed, err := RestorePipeline(bytes.NewReader(chain), net, model, oracle)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.StepCount() != cut {
		t.Fatalf("restored pipeline at step %d, want %d", resumed.StepCount(), cut)
	}
	if len(resumed.Events()) != eventsAtCut {
		t.Fatalf("restored pipeline has %d events, want %d", len(resumed.Events()), eventsAtCut)
	}
	if err := resumed.Run(total - cut); err != nil {
		t.Fatal(err)
	}

	requireSameTail(t, ref, resumed, eventsAtCut)
}

func TestCheckpointDeltaChainRoundTripSerial(t *testing.T) {
	runDeltaChainRoundTrip(t, false)
}

func TestCheckpointDeltaChainRoundTripDistributed(t *testing.T) {
	runDeltaChainRoundTrip(t, true)
}

// TestCheckpointWriterMaxDeltasForcesBase: the chain length bound. After
// MaxDeltas delta cuts the writer must start a fresh full base, so restore
// cost and torn-tail blast radius stay bounded.
func TestCheckpointWriterMaxDeltasForcesBase(t *testing.T) {
	p := checkpointPipeline(t, geom.NewGrid(8, 6), Diffusion, false)
	cw := NewCheckpointWriter(CheckpointWriterOptions{MaxDeltas: 2})
	want := []bool{true, false, false, true, false, false, true}
	for i, wantFull := range want {
		if err := p.Run(5); err != nil {
			t.Fatal(err)
		}
		_, full := cutBlob(t, cw, p)
		if full != wantFull {
			t.Fatalf("cut %d: full = %v, want %v (MaxDeltas 2)", i, full, wantFull)
		}
	}
}

// TestCheckpointWriterNegativeMaxDeltasAlwaysFull: MaxDeltas < 0 disables
// deltas entirely (the SaveState configuration).
func TestCheckpointWriterNegativeMaxDeltasAlwaysFull(t *testing.T) {
	p := checkpointPipeline(t, geom.NewGrid(8, 6), Diffusion, false)
	cw := NewCheckpointWriter(CheckpointWriterOptions{MaxDeltas: -1})
	for i := 0; i < 3; i++ {
		if err := p.Run(5); err != nil {
			t.Fatal(err)
		}
		blob, full := cutBlob(t, cw, p)
		if !full {
			t.Fatalf("cut %d: got a delta with MaxDeltas -1", i)
		}
		// Each full blob restores standalone.
		g := geom.NewGrid(8, 6)
		net, model, oracle := testEnv(t, g)
		restored, err := RestorePipeline(bytes.NewReader(blob), net, model, oracle)
		if err != nil {
			t.Fatalf("cut %d: standalone restore: %v", i, err)
		}
		if restored.StepCount() != p.StepCount() {
			t.Fatalf("cut %d restored at step %d, want %d", i, restored.StepCount(), p.StepCount())
		}
	}
}

// TestCheckpointDeltaCutZeroAlloc: once the chain's base is cut, a delta
// cut allocates nothing — not for the metadata record or the field CRCs —
// in either nest mode, at several states of a run with live nests.
func TestCheckpointDeltaCutZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is perturbed by the race detector")
	}
	for _, distributed := range []bool{false, true} {
		p := checkpointPipeline(t, geom.NewGrid(8, 6), Diffusion, distributed)
		if err := p.Run(60); err != nil {
			t.Fatal(err)
		}
		cw := NewCheckpointWriter(CheckpointWriterOptions{MaxDeltas: 1 << 30})
		if _, full := cutBlob(t, cw, p); !full {
			t.Fatal("first cut was not a full base")
		}
		for seg := 0; seg < 3; seg++ {
			if err := p.Run(15); err != nil {
				t.Fatal(err)
			}
			if n := len(p.Nests()) + len(p.DistributedNests()); n < 2 {
				t.Fatalf("distributed=%v step %d: %d nests, want >= 2", distributed, p.StepCount(), n)
			}
			allocs := testing.AllocsPerRun(20, func() {
				if _, full, err := cw.Encode(p); err != nil || full {
					t.Fatalf("delta cut: full=%v err=%v", full, err)
				}
			})
			if allocs != 0 {
				t.Fatalf("distributed=%v step %d: %.1f allocations per delta cut, want 0",
					distributed, p.StepCount(), allocs)
			}
		}
	}
}

// TestCheckpointWriterInvalidateForcesBase: after Invalidate (the
// scheduler calls it on failed persists and after elastic resizes) the
// next cut must be a self-contained full base with reset chain links.
func TestCheckpointWriterInvalidateForcesBase(t *testing.T) {
	p := checkpointPipeline(t, geom.NewGrid(8, 6), Diffusion, false)
	cw := NewCheckpointWriter(CheckpointWriterOptions{MaxDeltas: 64})
	if err := p.Run(20); err != nil {
		t.Fatal(err)
	}
	cutBlob(t, cw, p)
	if err := p.Run(5); err != nil {
		t.Fatal(err)
	}
	if _, full := cutBlob(t, cw, p); full {
		t.Fatal("second cut should have been a delta")
	}
	cw.Invalidate()
	if err := p.Run(5); err != nil {
		t.Fatal(err)
	}
	blob, full := cutBlob(t, cw, p)
	if !full {
		t.Fatal("cut after Invalidate was not a full base")
	}
	h, _, _, err := parseBlob(blob)
	if err != nil {
		t.Fatal(err)
	}
	if h.delta || h.seq != 0 || h.link != 0 {
		t.Fatalf("post-Invalidate base has chain links {delta %v seq %d link %#x}", h.delta, h.seq, h.link)
	}
	g := geom.NewGrid(8, 6)
	net, model, oracle := testEnv(t, g)
	restored, err := RestorePipeline(bytes.NewReader(blob), net, model, oracle)
	if err != nil {
		t.Fatal(err)
	}
	if restored.StepCount() != p.StepCount() {
		t.Fatalf("restored at step %d, want %d", restored.StepCount(), p.StepCount())
	}
}

// TestRestoreDeltaChainBrokenTailFallsBack: damage confined to the delta
// tail — torn mid-blob, a flipped payload bit, or a severed link — must
// not lose the checkpoint. Restore falls back to the longest valid prefix
// and ValidateCheckpoint reports ErrDeltaChainBroken so callers can count
// the truncation. Damage to the base itself stays fatal.
func TestRestoreDeltaChainBrokenTailFallsBack(t *testing.T) {
	g := geom.NewGrid(8, 6)
	p := checkpointPipeline(t, g, Diffusion, false)
	cw := NewCheckpointWriter(CheckpointWriterOptions{MaxDeltas: 64})
	if err := p.Run(60); err != nil {
		t.Fatal(err)
	}
	base, _ := cutBlob(t, cw, p)
	if err := p.Run(5); err != nil {
		t.Fatal(err)
	}
	d1, _ := cutBlob(t, cw, p)
	if err := p.Run(5); err != nil {
		t.Fatal(err)
	}
	d2, _ := cutBlob(t, cw, p)
	chain := append(append(append([]byte(nil), base...), d1...), d2...)

	cases := []struct {
		name     string
		mutate   func() []byte
		wantStep int
	}{
		{"torn mid final delta", func() []byte {
			return chain[:len(base)+len(d1)+len(d2)/2]
		}, 65},
		{"torn final delta header", func() []byte {
			return chain[:len(base)+len(d1)+3]
		}, 65},
		{"flipped bit in final delta", func() []byte {
			c := append([]byte(nil), chain...)
			c[len(base)+len(d1)+ckptV2HeaderLen+8] ^= 0x10
			return c
		}, 65},
		{"torn first delta", func() []byte {
			return chain[:len(base)+len(d1)/2]
		}, 60},
		{"retired record kind in final delta", func() []byte {
			h, recs := openBlob(t, d2)
			recs = append(recs, record{kind: retiredKinds[1], payload: make([]byte, 8)})
			return append(chain[:len(base)+len(d1):len(base)+len(d1)], sealBlob(h, recs)...)
		}, 65},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := tc.mutate()
			if err := ValidateCheckpoint(data); !errors.Is(err, ErrDeltaChainBroken) {
				t.Fatalf("ValidateCheckpoint = %v, want ErrDeltaChainBroken", err)
			}
			net, model, oracle := testEnv(t, g)
			restored, err := RestorePipeline(bytes.NewReader(data), net, model, oracle)
			if err != nil {
				t.Fatalf("broken-tail chain did not restore from its prefix: %v", err)
			}
			if restored.StepCount() != tc.wantStep {
				t.Fatalf("restored at step %d, want %d (longest valid prefix)", restored.StepCount(), tc.wantStep)
			}
		})
	}

	fatal := map[string][]byte{
		"torn base": chain[:len(base)/2],
	}
	h, recs := openBlob(t, base)
	recs = append(recs, record{kind: retiredKinds[1], payload: make([]byte, 8)})
	fatal["retired record kind in base"] = sealBlob(h, recs)
	for name, data := range fatal {
		t.Run(name+" is fatal", func(t *testing.T) {
			err := ValidateCheckpoint(data)
			if err == nil {
				t.Fatal("damaged base accepted")
			}
			if errors.Is(err, ErrDeltaChainBroken) {
				t.Fatalf("damaged base reported as a recoverable broken chain: %v", err)
			}
			net, model, oracle := testEnv(t, g)
			if _, err := RestorePipeline(bytes.NewReader(data), net, model, oracle); err == nil {
				t.Fatal("damaged base restored")
			}
		})
	}
}

package core

import (
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"io"

	"nestdiff/internal/field"
	"nestdiff/internal/geom"
	"nestdiff/internal/perfmodel"
	"nestdiff/internal/topology"
	"nestdiff/internal/wrfsim"
)

// Checkpoint envelope: the payload is framed by a fixed header so that
// RestorePipeline can reject torn or corrupt files outright instead of
// partially decoding them —
//
//	magic "NDCP" (4) | envelope version (1) | payload length (8, LE) | CRC-32C of payload (4)
//
// Version 2, the only one read or written, extends this header and frames
// a chain of binary blobs (see ckptcodec.go); version 1 framed a single gob
// payload and is rejected as unsupported. A write that dies mid-checkpoint
// leaves a file that fails the length check; a bit flip anywhere in the
// payload fails the checksum.
var ckptMagic = [4]byte{'N', 'D', 'C', 'P'}

// ckptMaxPayload bounds the allocation a (possibly corrupt) header can
// demand.
const ckptMaxPayload = 1 << 32

var ckptCRC = crc32.MakeTable(crc32.Castagnoli)

// SaveState writes a checkpoint of the whole pipeline: parent model, live
// nests, tracker, active set and event history, as a single full v2 base
// blob. A pipeline restored from it via RestorePipeline continues
// bit-identically, so a paused run resumed later produces the same
// StepMetrics tail as an uninterrupted one. Callers that
// checkpoint repeatedly should hold a CheckpointWriter instead: it reuses
// its buffers and emits delta blobs between bases.
func (p *Pipeline) SaveState(w io.Writer) error {
	cw := NewCheckpointWriter(CheckpointWriterOptions{MaxDeltas: -1})
	blob, _, err := cw.Encode(p)
	if err != nil {
		return err
	}
	if _, err := w.Write(blob); err != nil {
		return fmt.Errorf("core: save pipeline state: %w", err)
	}
	return nil
}

// ValidateCheckpoint checks that data is a complete, uncorrupted pipeline
// checkpoint without decoding any field samples: the same walk
// RestorePipeline makes — headers, payload and record CRCs, base→delta link
// continuity, blob shapes, field dimensions and the gob metadata —
// stopping short only of converting the samples. It is the cheap integrity
// test the scheduler's startup recovery scan runs over every *.ckpt file
// before re-registering the job.
//
// A chain whose base is intact but whose delta tail is torn, corrupt or
// discontinuous returns an error matching ErrDeltaChainBroken (via
// errors.Is): the checkpoint still restores — RestorePipeline falls back
// to the longest valid prefix — but the caller may want to count or log
// the truncation. Any other non-nil error means the checkpoint is
// unusable.
func ValidateCheckpoint(data []byte) error {
	st, err := walkChain(data, false)
	if err != nil {
		return err
	}
	return st.broken
}

// RestorePipeline rebuilds a pipeline from a checkpoint written by
// SaveState or assembled from a CheckpointWriter's blob chain, attaching
// the given machine and performance models (they are configuration, not
// state). The restored pipeline continues exactly where the saved one
// stopped. A chain with a broken delta tail restores from the longest valid
// prefix — the run re-executes the lost steps, which is exactly the
// crash-retry semantics the scheduler needs — while a damaged base is
// rejected outright.
func RestorePipeline(r io.Reader, net topology.Network, model *perfmodel.ExecModel, oracle *perfmodel.Oracle) (*Pipeline, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("core: load pipeline state: %w", err)
	}
	st, err := walkChain(data, true)
	if err != nil {
		return nil, err
	}
	return st.restore(net, model, oracle)
}

// chainNest is one nest of a base blob.
type chainNest struct {
	id     int
	region geom.Rect
	procs  geom.Rect
	nx, ny int
	steps  int
	data   []float64
}

// replayDirective is a delta blob's content: the step the restore must
// re-execute to and the field CRCs the result must match.
type replayDirective struct {
	step     int
	modelCRC uint32
	nests    []replayNestCRC
}

// replayNestCRC is one nest's recorded identity in a replay directive.
type replayNestCRC struct {
	id  int
	crc uint32
}

// chainV2 is what a walk of a v2 blob chain yields: the state of the last
// intact base, and the directive of the last intact delta after it.
type chainV2 struct {
	meta  ckptMetaV2
	model []float64   // nil when the walk did not decode samples
	nests []chainNest // ascending ID
	// replay is nil when the chain's intact prefix ends on its base. meta
	// describes the base the replay starts from, not the replay's step.
	replay *replayDirective
	// broken is why the walk stopped before the end of the data, wrapping
	// ErrDeltaChainBroken; the state is that of the blobs before it.
	broken error
}

// walkChain is the one reader of a v2 blob chain, behind both
// ValidateCheckpoint (decode false: field samples are length-checked only)
// and RestorePipeline. Every blob is checked in full — header, payload CRC,
// link to its predecessor, record framing and CRCs, blob shape, metadata —
// before it changes the result. Damage to the first blob is an error;
// damage after it ends the walk with the state so far and sets broken.
func walkChain(data []byte, decode bool) (*chainV2, error) {
	st := &chainV2{}
	feeder := &byteFeeder{}
	var dec *gob.Decoder
	var recs []record
	var prev blobHeader
	for off := 0; off == 0 || off < len(data); { // empty data fails as a truncated first header
		h, payload, size, err := parseBlob(data[off:])
		switch {
		case err != nil:
		case h.delta && off == 0:
			err = fmt.Errorf("core: load pipeline state: chain starts with a delta blob (missing base)")
		case h.delta && (h.seq != prev.seq+1 || h.link != prev.crc):
			err = fmt.Errorf("core: load pipeline state: delta %d does not continue blob %d", h.seq, prev.seq)
		case !h.delta && (h.seq != 0 || h.link != 0):
			err = fmt.Errorf("core: load pipeline state: base blob with nonzero chain links")
		default:
			recs, err = splitRecords(payload, recs[:0])
		}
		if err == nil {
			if !h.delta {
				// A base restarts the chain-scoped gob stream.
				dec = gob.NewDecoder(feeder)
			}
			err = st.readBlob(recs, h.delta, dec, feeder, decode)
		}
		if err != nil {
			if off == 0 {
				return nil, err
			}
			st.broken = fmt.Errorf("%w: blob %d: %v", ErrDeltaChainBroken, prev.seq+1, err)
			break
		}
		prev = h
		off += size
	}
	return st, nil
}

// readBlob parses one blob's records — a base is recMeta, recModelRaw,
// recNestFull*, a delta is recMeta, recReplay, and any other kind or order
// is rejected — and only then folds it into st: a base replaces the state
// wholesale, a delta replaces the replay directive.
func (st *chainV2) readBlob(recs []record, delta bool, dec *gob.Decoder, feeder *byteFeeder, decode bool) error {
	if len(recs) == 0 || recs[0].kind != recMeta {
		return fmt.Errorf("core: load pipeline state: blob does not start with a metadata record")
	}
	var meta ckptMetaV2
	feeder.data = recs[0].payload
	if err := dec.Decode(&meta); err != nil {
		return fmt.Errorf("core: load pipeline state: checkpoint metadata: %w", err)
	}
	if len(feeder.data) != 0 {
		return fmt.Errorf("core: load pipeline state: checkpoint metadata: trailing bytes")
	}
	recs = recs[1:]
	if delta {
		// The delta's own metadata is step bookkeeping the replay
		// regenerates; the base's stays.
		if len(recs) != 1 || recs[0].kind != recReplay {
			return fmt.Errorf("core: load pipeline state: delta blob is not a single replay directive")
		}
		rp, err := parseReplay(recs[0].payload)
		if err != nil {
			return err
		}
		st.replay = rp
		return nil
	}
	if len(recs) == 0 || recs[0].kind != recModelRaw {
		return fmt.Errorf("core: load pipeline state: base blob has no model field after its metadata")
	}
	nx, ny, model, err := parseField(recs[0].payload, decode)
	if err != nil {
		return err
	}
	if nx != meta.MCfg.NX || ny != meta.MCfg.NY {
		return fmt.Errorf("core: load pipeline state: %dx%d model field under metadata for a %dx%d domain", nx, ny, meta.MCfg.NX, meta.MCfg.NY)
	}
	nests := make([]chainNest, 0, len(recs)-1)
	for _, rec := range recs[1:] {
		b := rec.payload
		if rec.kind != recNestFull || len(b) < nestFullPrefix {
			return fmt.Errorf("core: load pipeline state: record kind %d (%d bytes) where a base blob needs a nest", rec.kind, len(b))
		}
		n := chainNest{
			id:     int(binary.LittleEndian.Uint32(b[0:4])),
			region: decodeRect(b[4:20]),
			steps:  int(binary.LittleEndian.Uint32(b[20:24])),
			procs:  decodeRect(b[25:41]),
		}
		if len(nests) > 0 && n.id <= nests[len(nests)-1].id {
			return fmt.Errorf("core: load pipeline state: nest %d out of order in a base blob", n.id)
		}
		if n.nx, n.ny, n.data, err = parseField(b[nestFullPrefix:], decode); err != nil {
			return fmt.Errorf("%w (nest %d)", err, n.id)
		}
		nests = append(nests, n)
	}
	*st = chainV2{meta: meta, model: model, nests: nests}
	return nil
}

// parseReplay decodes a replay directive: target step, model CRC, nest
// count, then one (id, CRC) pair per nest.
func parseReplay(b []byte) (*replayDirective, error) {
	if len(b) < 9 {
		return nil, fmt.Errorf("core: load pipeline state: short replay directive")
	}
	n, used := binary.Uvarint(b[8:])
	if used <= 0 || n > 1<<16 {
		return nil, fmt.Errorf("core: load pipeline state: implausible replay nest count")
	}
	if len(b) != 8+used+8*int(n) {
		return nil, fmt.Errorf("core: load pipeline state: replay directive has %d bytes for %d nests", len(b), n)
	}
	rp := &replayDirective{
		step:     int(binary.LittleEndian.Uint32(b[0:4])),
		modelCRC: binary.LittleEndian.Uint32(b[4:8]),
		nests:    make([]replayNestCRC, n),
	}
	b = b[8+used:]
	for i := range rp.nests {
		rp.nests[i] = replayNestCRC{
			id:  int(binary.LittleEndian.Uint32(b[8*i:])),
			crc: binary.LittleEndian.Uint32(b[8*i+4:]),
		}
	}
	return rp, nil
}

// restore rebuilds the pipeline from a decoded chain's base and re-executes
// it to the last intact delta's step. A pipeline it gives up on is closed.
func (st *chainV2) restore(net topology.Network, model *perfmodel.ExecModel, oracle *perfmodel.Oracle) (_ *Pipeline, err error) {
	meta := st.meta
	m, err := wrfsim.RestoreModel(meta.MCfg, st.model, meta.Cells, meta.RNG, meta.Time, meta.Step)
	if err != nil {
		return nil, err
	}
	tr, err := restoreTrackerState(meta.Tracker, net, model, oracle)
	if err != nil {
		return nil, err
	}
	p, err := NewPipeline(m, tr, meta.Cfg)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			p.Close()
		}
	}()
	p.set = meta.Set
	p.nextID = meta.NextID
	p.events = meta.Events
	for _, ns := range st.nests {
		n, err := wrfsim.RestoreNest(ns.id, ns.region, &field.Field{NX: ns.nx, NY: ns.ny, Data: ns.data}, ns.steps)
		if err == nil {
			err = p.adopt(n, ns.procs)
		}
		if err != nil {
			return nil, fmt.Errorf("core: restore nest %d: %w", ns.id, err)
		}
	}
	if st.replay != nil {
		if err := replayToDirective(p, st.replay); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// replayToDirective re-executes the restored base pipeline up to the thin
// delta's target step and proves the result bit-identical to the state the
// writer checkpointed, via the directive's model and per-nest CRCs. The
// pipeline is deterministic, so this reproduces exactly the steps the
// original run took between the base and the delta cut.
func replayToDirective(p *Pipeline, rp *replayDirective) error {
	k := rp.step - p.StepCount()
	if k < 0 {
		return fmt.Errorf("core: load pipeline state: replay directive targets step %d behind the base at step %d",
			rp.step, p.StepCount())
	}
	if k > 0 {
		if err := p.Run(k); err != nil {
			return fmt.Errorf("core: load pipeline state: delta replay: %w", err)
		}
	}
	if got := fieldCRC(p.model.QCloud().Data); got != rp.modelCRC {
		return fmt.Errorf("core: load pipeline state: model field diverged during delta replay (checkpoint crc %#x, replayed %#x)",
			rp.modelCRC, got)
	}
	if len(p.nests) != len(rp.nests) {
		return fmt.Errorf("core: load pipeline state: %d nests after delta replay, checkpoint recorded %d",
			len(p.nests), len(rp.nests))
	}
	for _, rn := range rp.nests {
		n := p.nests[rn.id]
		if n == nil {
			return fmt.Errorf("core: load pipeline state: nest %d missing after delta replay", rn.id)
		}
		if got := fieldCRC(n.QCloud().Data); got != rn.crc {
			return fmt.Errorf("core: load pipeline state: nest %d field diverged during delta replay (checkpoint crc %#x, replayed %#x)",
				rn.id, rn.crc, got)
		}
	}
	return nil
}

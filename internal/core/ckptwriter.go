package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"hash/crc32"

	"nestdiff/internal/scenario"
	"nestdiff/internal/wrfsim"
)

// ckptMetaV2 is the non-field state of one v2 checkpoint blob: everything
// a restore needs except the float64 arrays, which travel as binary field
// records. It is small (events, tracker history, cell population), so gob
// remains the right tool for it; the arrays it excludes are ~99% of the
// payload and go through the binary codec instead.
type ckptMetaV2 struct {
	Cfg     PipelineConfig
	Set     scenario.Set
	NextID  int
	Events  []AdaptationEvent
	Tracker trackerState
	MCfg    wrfsim.Config
	Cells   []wrfsim.Cell
	RNG     uint64
	Time    float64
	Step    int
}

// CheckpointWriterOptions tunes a CheckpointWriter.
type CheckpointWriterOptions struct {
	// MaxDeltas bounds the delta chain: after this many consecutive delta
	// blobs the next Encode emits a full base. Zero means the default (8);
	// negative disables deltas entirely, so every Encode is a full base.
	MaxDeltas int
}

const defaultMaxDeltas = 8

// CheckpointWriter encodes pipeline checkpoints as NDCP v2 blobs: a full
// base, then replay-directive deltas until the chain bound forces the next
// base. All buffers — the two output arenas and the gather targets of
// distributed nests — are pooled, so steady-state encoding of an unchanged
// topology allocates only what gob needs for the small metadata record.
//
// The writer assumes it sees every checkpoint of one pipeline in order: a
// delta restores only on top of the blobs since the last full base, so
// every blob it returned since then must actually have been committed. A
// caller that drops a blob (failed write) or mutates the pipeline outside
// stepping (elastic resize) must call Invalidate so the next Encode
// re-bases.
//
// Not safe for concurrent use; Encode must not run while the pipeline is
// stepping.
type CheckpointWriter struct {
	opts CheckpointWriterOptions

	// Chain bookkeeping: valid gates delta encoding, deltas counts blobs
	// since the last base, seq/prevCRC seed the next blob's header links.
	valid   bool
	deltas  int
	seq     uint32
	prevCRC uint32

	// arenas double-buffer the encoded output: the blob returned by one
	// Encode stays untouched through the next Encode (which uses the other
	// arena), so a caller can hand it to an async persister without a copy.
	arenas [2][]byte
	cur    int

	// metaEnc is the chain-scoped gob stream: type descriptors are sent
	// once per chain (on the base blob) instead of once per checkpoint.
	// meta lives on the writer because gob takes it by reference — a local
	// would escape and cost one heap allocation per Encode.
	metaEnc *gob.Encoder
	metaRaw bytes.Buffer
	meta    ckptMetaV2

	// Reused encode scratch. ids is the live nest IDs of the current
	// Encode in ascending order.
	ids   []int
	cells []wrfsim.Cell
}

// NewCheckpointWriter returns a writer whose first Encode emits a full
// base.
func NewCheckpointWriter(opts CheckpointWriterOptions) *CheckpointWriter {
	return &CheckpointWriter{opts: opts}
}

// Invalidate forces the next Encode to emit a full base blob. Callers use
// it when a returned blob was not durably committed (so the chain on disk
// no longer ends where the writer thinks it does) or when pipeline state
// changed outside stepping (elastic resize redistributes fields
// ULP-equivalently, not bit-identically, so a replay from the old base
// would fail its CRCs).
func (cw *CheckpointWriter) Invalidate() { cw.valid = false }

func (cw *CheckpointWriter) maxDeltas() int {
	if cw.opts.MaxDeltas < 0 {
		return 0
	}
	if cw.opts.MaxDeltas == 0 {
		return defaultMaxDeltas
	}
	return cw.opts.MaxDeltas
}

// Encode captures the pipeline's current state as one v2 blob and reports
// whether it is a full base. A delta blob only restores on top of the
// chain of blobs since the last full base; callers append it to the bytes
// of that chain. The returned slice aliases one of the writer's two
// arenas: it is stable through the next Encode call and overwritten by the
// one after, so callers that keep it longer must copy.
func (cw *CheckpointWriter) Encode(p *Pipeline) (blob []byte, full bool, err error) {
	full = !cw.valid || cw.deltas >= cw.maxDeltas()
	cw.cur ^= 1
	buf := cw.arenas[cw.cur][:0]
	var hdr [ckptV2HeaderLen]byte
	buf = append(buf, hdr[:]...)

	// Metadata record first; gob encoding is the only fallible step.
	if full {
		cw.metaEnc = gob.NewEncoder(&cw.metaRaw)
	}
	meta := &cw.meta
	*meta = ckptMetaV2{
		RNG:  p.model.RNGState(),
		Time: p.model.Time(),
		Step: p.model.StepCount(),
	}
	if full {
		// A delta's replay rebuilds everything below from the base, so its
		// metadata record carries only the step bookkeeping above.
		cw.cells = p.model.AppendCells(cw.cells[:0])
		meta.Cfg = p.cfg
		meta.Set = p.set
		meta.NextID = p.nextID
		meta.Events = p.events
		meta.Tracker = p.tracker.state()
		meta.MCfg = p.model.Config()
		meta.Cells = cw.cells
	}
	cw.metaRaw.Reset()
	if err := cw.metaEnc.Encode(meta); err != nil {
		cw.valid = false
		return nil, false, fmt.Errorf("core: save pipeline state: %w", err)
	}
	buf, start := beginRecord(buf, recMeta)
	buf = append(buf, cw.metaRaw.Bytes()...)
	buf = endRecord(buf, start)

	sortedIDs(&cw.ids, p.nests)
	if full {
		q := p.model.QCloud()
		buf, start = beginRecord(buf, recModelRaw)
		buf = appendField(buf, q.NX, q.NY, q.Data)
		buf = endRecord(buf, start)
		for _, id := range cw.ids {
			buf = appendNest(buf, p.nests[id])
		}
	} else {
		buf = cw.encodeReplay(buf, p)
	}

	payload := buf[ckptV2HeaderLen:]
	h := blobHeader{
		payloadLen: uint64(len(payload)),
		crc:        crc32.Checksum(payload, ckptCRC),
		delta:      !full,
	}
	if full {
		cw.seq, cw.deltas = 0, 0
	} else {
		cw.seq++
		cw.deltas++
		h.seq = cw.seq
		h.link = cw.prevCRC
	}
	putBlobHeader(buf[:ckptV2HeaderLen], h)
	cw.prevCRC = h.crc
	cw.valid = true
	cw.arenas[cw.cur] = buf
	return buf, full, nil
}

// appendNest appends the complete record of nest n to buf: a placed
// nest is flagged distributed and carries its processor sub-rectangle. A
// base appends its nests one after another in ID order: with samples
// encoded as one copy of their memory, a concurrent per-nest encode did
// not pay.
func appendNest(buf []byte, n *wrfsim.Nest) []byte {
	nx, ny := n.Size()
	var flags byte
	if !n.Procs().Empty() {
		flags = nestFlagDistributed
	}
	buf, start := beginRecord(buf, recNestFull)
	buf = appendU32(buf, uint32(n.ID))
	buf = appendRect(buf, n.Region)
	buf = appendU32(buf, uint32(n.StepCount()))
	buf = append(buf, flags)
	buf = appendRect(buf, n.Procs())
	buf = appendField(buf, nx, ny, n.QCloud().Data)
	return endRecord(buf, start)
}

// encodeReplay appends the delta record: the step the restore must
// re-execute to, plus CRCs of the model and every live nest field at that
// step so the replayed state is provably bit-identical.
func (cw *CheckpointWriter) encodeReplay(buf []byte, p *Pipeline) []byte {
	buf, start := beginRecord(buf, recReplay)
	buf = appendU32(buf, uint32(p.model.StepCount()))
	buf = appendU32(buf, fieldCRC(p.model.QCloud().Data))
	buf = appendUvarint(buf, uint64(len(cw.ids)))
	for _, id := range cw.ids {
		buf = appendU32(buf, uint32(id))
		buf = appendU32(buf, fieldCRC(p.nests[id].QCloud().Data))
	}
	return endRecord(buf, start)
}

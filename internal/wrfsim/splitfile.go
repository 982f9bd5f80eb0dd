package wrfsim

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"

	"nestdiff/internal/field"
	"nestdiff/internal/geom"
)

// Split is the per-rank simulation output of one time step: the rank's
// block of the parent domain with its QCLOUD and OLR samples. This is what
// "each process running WRF generates ... and writes into a split file"
// (§III).
//
// The fields are either block-sized, as Splits copies them and ReadSplit
// reads them, or the whole domain's, as SplitWindows hands them out;
// Window finds the block in either.
type Split struct {
	Rank   int
	Px, Py int       // the WRF process grid the domain was decomposed over
	Bounds geom.Rect // this rank's block, in parent grid points
	Step   int
	QCloud *field.Field
	OLR    *field.Field
}

// Window returns f, one of the split's fields, from the first sample of
// the split's block on, and the stride between the block's rows in it. A
// block-sized f holds the block alone; any other f is the domain the
// block is a window of, indexed through Bounds. The two readings agree
// where they overlap: a domain-sized field has the block's extents only
// when the block is the whole domain.
func (s *Split) Window(f *field.Field) (data []float64, stride int) {
	if f.NX == s.Bounds.Width() && f.NY == s.Bounds.Height() {
		return f.Data, f.NX
	}
	return f.Data[s.Bounds.Y0*f.NX+s.Bounds.X0:], f.NX
}

// Splits decomposes the model's current state over a Px×Py process grid
// and returns one Split per rank, in rank order, each holding a copy of
// its block. The result is the caller's: nothing the model does later
// changes it.
func (m *Model) Splits(pg geom.Grid) ([]Split, error) {
	splits, err := m.SplitWindows(nil, pg)
	if err != nil {
		return nil, err
	}
	for i := range splits {
		s := &splits[i]
		s.QCloud, s.OLR = s.QCloud.Sub(s.Bounds), s.OLR.Sub(s.Bounds)
	}
	return splits, nil
}

// SplitWindows is Splits without the copies: every split's fields are the
// model's live qcloud and OLR, and its Bounds is the window its rank
// reads. The windows are valid until the model next steps. buf's backing
// array is reused when it is large enough, so a caller that hands each
// call's result to the next allocates nothing once the buffer is warm.
func (m *Model) SplitWindows(buf []Split, pg geom.Grid) ([]Split, error) {
	if pg.Px > m.cfg.NX || pg.Py > m.cfg.NY {
		return nil, fmt.Errorf("wrfsim: process grid %dx%d larger than domain %dx%d",
			pg.Px, pg.Py, m.cfg.NX, m.cfg.NY)
	}
	olr := m.OLR()
	bd := geom.NewBlockDist(m.cfg.NX, m.cfg.NY, pg.Bounds())
	buf = slices.Grow(buf[:0], pg.Size())[:pg.Size()]
	bd.Blocks(func(p geom.Point, blk geom.Rect) {
		buf[pg.Rank(p)] = Split{
			Rank:   pg.Rank(p),
			Px:     pg.Px,
			Py:     pg.Py,
			Bounds: blk,
			Step:   m.step,
			QCloud: m.qcloud,
			OLR:    olr,
		}
	})
	return buf, nil
}

const (
	splitMagic   = uint32(0x4644534e) // "NSDF"
	splitVersion = uint32(1)
)

// WriteSplit serializes one split in the binary split-file format.
func WriteSplit(w io.Writer, s Split) error {
	bw := bufio.NewWriter(w)
	hdr := []uint32{
		splitMagic, splitVersion,
		uint32(s.Rank), uint32(s.Px), uint32(s.Py),
		uint32(s.Bounds.X0), uint32(s.Bounds.Y0),
		uint32(s.Bounds.Width()), uint32(s.Bounds.Height()),
		uint32(s.Step),
	}
	for _, v := range hdr {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return fmt.Errorf("wrfsim: write split header: %w", err)
		}
	}
	for _, f := range []*field.Field{s.QCloud, s.OLR} {
		if f.NX != s.Bounds.Width() || f.NY != s.Bounds.Height() {
			return fmt.Errorf("wrfsim: field extents %dx%d do not match block %v", f.NX, f.NY, s.Bounds)
		}
		if err := binary.Write(bw, binary.LittleEndian, f.Data); err != nil {
			return fmt.Errorf("wrfsim: write split payload: %w", err)
		}
	}
	return bw.Flush()
}

// ReadSplit parses one split from the binary split-file format.
func ReadSplit(r io.Reader) (Split, error) {
	br := bufio.NewReader(r)
	var hdr [10]uint32
	for i := range hdr {
		if err := binary.Read(br, binary.LittleEndian, &hdr[i]); err != nil {
			return Split{}, fmt.Errorf("wrfsim: read split header: %w", err)
		}
	}
	if hdr[0] != splitMagic {
		return Split{}, fmt.Errorf("wrfsim: bad split magic %#x", hdr[0])
	}
	if hdr[1] != splitVersion {
		return Split{}, fmt.Errorf("wrfsim: unsupported split version %d", hdr[1])
	}
	w, h := int(hdr[7]), int(hdr[8])
	// Bound the allocation implied by the header before trusting it: a
	// single rank's block cannot plausibly exceed 2^24 grid points (the
	// whole real-scale parent domain is ~2·10^5).
	if w <= 0 || h <= 0 || w > 1<<16 || h > 1<<16 || w*h > 1<<24 {
		return Split{}, fmt.Errorf("wrfsim: implausible block extents %dx%d", w, h)
	}
	s := Split{
		Rank:   int(hdr[2]),
		Px:     int(hdr[3]),
		Py:     int(hdr[4]),
		Bounds: geom.NewRect(int(hdr[5]), int(hdr[6]), w, h),
		Step:   int(hdr[9]),
		QCloud: field.New(w, h),
		OLR:    field.New(w, h),
	}
	for _, f := range []*field.Field{s.QCloud, s.OLR} {
		if err := binary.Read(br, binary.LittleEndian, f.Data); err != nil {
			return Split{}, fmt.Errorf("wrfsim: read split payload: %w", err)
		}
	}
	return s, nil
}

// SplitFileName returns the conventional name of rank r's split file for a
// step, e.g. "wrfout_d01_000123_rank0042.nsf".
func SplitFileName(step, rank int) string {
	return fmt.Sprintf("wrfout_d01_%06d_rank%04d.nsf", step, rank)
}

// WriteSplitFiles writes every rank's split file for the current model
// state into dir.
func (m *Model) WriteSplitFiles(dir string, pg geom.Grid) error {
	splits, err := m.Splits(pg)
	if err != nil {
		return err
	}
	for _, s := range splits {
		path := filepath.Join(dir, SplitFileName(s.Step, s.Rank))
		f, err := os.Create(path)
		if err != nil {
			return fmt.Errorf("wrfsim: create split file: %w", err)
		}
		if err := WriteSplit(f, s); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("wrfsim: close split file: %w", err)
		}
	}
	return nil
}

// ReadSplitFile loads one split file from disk.
func ReadSplitFile(path string) (Split, error) {
	f, err := os.Open(path)
	if err != nil {
		return Split{}, fmt.Errorf("wrfsim: open split file: %w", err)
	}
	defer f.Close()
	return ReadSplit(f)
}

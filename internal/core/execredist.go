package core

import (
	"fmt"

	"nestdiff/internal/field"
	"nestdiff/internal/geom"
	"nestdiff/internal/mpi"
	"nestdiff/internal/redist"
)

// RedistributeField executes a nest redistribution as the modified WRF
// does (§IV): the nest field starts block-distributed over the old
// processor sub-rectangle, one MPI_Alltoallv ships the intersections of
// every sender's old block with each receiver's new block
// (redist.Exchange; every rank reads its old block from src and writes its
// new block into the result, which are disjoint), and the field ends
// block-distributed over the new sub-rectangle. The reassembled field and
// the modelled exchange time are returned.
//
// The world must span exactly the process grid. src must match the
// transfer's nest extents; the data moved is one float64 per grid point
// (use the plan/metrics path for multi-field byte accounting).
func RedistributeField(w *mpi.World, g geom.Grid, tr redist.Transfer, src *field.Field) (*field.Field, float64, error) {
	if w.Size() != g.Size() {
		return nil, 0, fmt.Errorf("core: world of %d ranks for grid of %d", w.Size(), g.Size())
	}
	if src.NX != tr.NX || src.NY != tr.NY {
		return nil, 0, fmt.Errorf("core: source field %dx%d does not match nest %dx%d",
			src.NX, src.NY, tr.NX, tr.NY)
	}
	if tr.Old.Empty() || tr.New.Empty() ||
		!g.Bounds().ContainsRect(tr.Old) || !g.Bounds().ContainsRect(tr.New) {
		return nil, 0, fmt.Errorf("core: invalid sub-rectangles %v -> %v", tr.Old, tr.New)
	}
	dst := field.New(tr.NX, tr.NY)
	whole := func(f *field.Field) func(int) redist.Window {
		return func(int) redist.Window { return redist.Window{F: f} }
	}
	elapsed, _, err := redist.Exchange(w, g,
		geom.NewBlockDist(tr.NX, tr.NY, tr.Old), geom.NewBlockDist(tr.NX, tr.NY, tr.New),
		make([]mpi.Scratch, g.Size()), whole(src), whole(dst))
	if err != nil {
		return nil, 0, err
	}
	return dst, elapsed, nil
}

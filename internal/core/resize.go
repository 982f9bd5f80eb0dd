package core

import (
	"errors"
	"fmt"
	"slices"

	"nestdiff/internal/geom"
	"nestdiff/internal/mpi"
	"nestdiff/internal/perfmodel"
	"nestdiff/internal/redist"
	"nestdiff/internal/topology"
	"nestdiff/internal/wrfsim"
)

// ErrProcMismatch reports that a checkpoint's processor grid does not
// match the runtime machine it is being restored onto. Callers that can
// resize (internal/elastic, the scheduler's resize path) detect it with
// errors.Is and redistribute instead of failing.
var ErrProcMismatch = errors.New("core: checkpoint processor count does not match runtime world")

// ResizeReport summarizes one in-place processor-grid resize.
type ResizeReport struct {
	// OldProcs and NewProcs are the processor counts before and after.
	OldProcs int `json:"old_procs"`
	NewProcs int `json:"new_procs"`
	// Nests is how many distributed nests were redistributed.
	Nests int `json:"nests"`
	// MovedBytes is the modelled payload of the redistribution
	// (fine points × tracker element size, summed over nests).
	MovedBytes int64 `json:"moved_bytes"`
	// RedistTime is the modelled virtual time of the executed Alltoallv
	// exchanges that moved every nest from its old to its new block
	// decomposition.
	RedistTime float64 `json:"redist_time"`
}

// ResizeGrid resizes the pipeline's processor grid in place at a step
// boundary: the tracker is rebuilt over the new grid and network (same
// strategy and options) and seeded with the current nest set, the compute
// world is rebuilt at the new size, and every distributed nest's blocks
// are remapped from its old processor sub-rectangle to its new one
// through one pooled Alltoallv per nest (RedistributeField) over a
// transition grid spanning both decompositions. The parent model, the
// analysis world, the nest-ID counter and the recorded events are
// untouched, so the pipeline resumes exactly where it stopped — with the
// scratch strategy, whose allocations depend only on the current set,
// the post-resize step trace is bit-identical to a run that was at the
// new size all along.
//
// On error the pipeline is left unchanged: every replacement structure is
// built before any of them is committed. The transition world, and on
// success the compute world the new one replaces, are closed.
func (p *Pipeline) ResizeGrid(g geom.Grid, net topology.Network, model *perfmodel.ExecModel, oracle *perfmodel.Oracle) (rep ResizeReport, err error) {
	if net == nil || model == nil || oracle == nil {
		return ResizeReport{}, fmt.Errorf("core: resize with nil machine dependency")
	}
	if g.Size() < 1 {
		return ResizeReport{}, fmt.Errorf("core: resize to empty grid %v", g)
	}
	oldGrid := p.tracker.grid
	rep = ResizeReport{OldProcs: oldGrid.Size(), NewProcs: g.Size()}
	if g == oldGrid {
		return rep, nil // already at this size
	}

	tr, err := NewTracker(g, net, model, oracle, p.tracker.strategy, p.tracker.opts)
	if err != nil {
		return ResizeReport{}, err
	}
	// Seed the new tracker with the current set so its allocation state
	// matches what a fixed-size run would hold at this point (the initial
	// Apply partitions from scratch and models no redistribution — the
	// nests' actual moves are executed below and reported separately).
	if len(p.set) > 0 {
		if _, err := tr.Apply(p.set); err != nil {
			return ResizeReport{}, err
		}
	}
	tr.SetTracer(p.tracer)

	if !p.cfg.Distributed {
		p.tracker = tr
		return rep, nil
	}

	compWorld, err := mpi.NewWorld(g.Size(), mpi.Config{Net: net})
	if err != nil {
		return ResizeReport{}, err
	}
	defer func() {
		if err != nil {
			compWorld.Close()
		}
	}()

	// Every nest moves from its old sub-rectangle (old-grid coordinates)
	// to its new one (new-grid coordinates). One transition grid spanning
	// both decompositions hosts the Alltoallv: old and new rectangles are
	// both valid sub-rectangles of it, so the exchange is exactly the
	// paper's redistribution with the union of old and new ranks
	// participating.
	newNests := make(map[int]*wrfsim.ParallelNest, len(p.dnests))
	if len(p.dnests) > 0 {
		tg := geom.NewGrid(max(oldGrid.Px, g.Px), max(oldGrid.Py, g.Py))
		tnet, err := topology.NewSwitched(tg.Size(), 8, topology.DefaultSwitchedParams())
		if err != nil {
			return ResizeReport{}, err
		}
		tw, err := mpi.NewWorld(tg.Size(), mpi.Config{Net: tnet})
		if err != nil {
			return ResizeReport{}, err
		}
		defer tw.Close()
		rects := tr.Allocation().Rects
		ids := make([]int, 0, len(p.dnests))
		for id := range p.dnests {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		for _, id := range ids {
			nest := p.dnests[id]
			spec, ok := p.set.ByID(id)
			if !ok {
				return ResizeReport{}, fmt.Errorf("core: resize: nest %d not in active set", id)
			}
			newRect, ok := rects[id]
			if !ok {
				return ResizeReport{}, fmt.Errorf("core: resize: nest %d has no allocation", id)
			}
			nx, ny := spec.FineSize(wrfsim.NestRatio)
			newRect = usableProcs(newRect, nx, ny)
			xfer := redist.Transfer{
				NestID: id, NX: nx, NY: ny,
				Old: nest.Procs(), New: newRect,
				ElemBytes: p.tracker.opts.ElemBytes,
			}
			fine, elapsed, err := RedistributeField(tw, tg, xfer, nest.QCloud())
			if err != nil {
				return ResizeReport{}, fmt.Errorf("core: resize nest %d: %w", id, err)
			}
			nn, err := wrfsim.RestoreParallelNest(id, spec.Region, g, newRect, fine, nest.StepCount())
			if err != nil {
				return ResizeReport{}, fmt.Errorf("core: resize nest %d: %w", id, err)
			}
			nn.SetTracer(p.tracer)
			newNests[id] = nn
			rep.Nests++
			rep.MovedBytes += int64(nx) * int64(ny) * int64(p.tracker.opts.ElemBytes)
			rep.RedistTime += elapsed
		}
	}

	compWorld.SetFaults(p.faults)
	p.compWorld.Close()
	for _, n := range p.dnests {
		n.Release()
	}
	p.tracker = tr
	p.compWorld = compWorld
	p.dnests = newNests
	return rep, nil
}

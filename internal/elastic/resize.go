package elastic

import (
	"fmt"

	"nestdiff/internal/core"
)

// Resize changes a running pipeline's processor count in place at a step
// boundary: it rebuilds the modelled machine at newProcs cores (same
// interconnect kind), reseeds the tracker over the new grid, rebuilds
// the compute world and remaps every distributed nest's blocks from its
// old processor sub-rectangle to its new one through one pooled
// Alltoallv per nest. The pipeline resumes exactly where it stopped;
// with the scratch strategy the post-resize step trace is bit-identical
// to a run that was at the new size all along (the diffusion strategy's
// allocations are history-dependent, so only the nest sets and model
// evolution — not the modelled redistribution costs — are preserved).
//
// The replaced compute world's rank workers are stopped, and the replaced
// nests' rank shares released.
//
// On error the pipeline is unchanged and still runnable at its old size.
func Resize(p *core.Pipeline, newProcs int, machineKind string, coresPerNode int) (core.ResizeReport, error) {
	if p == nil {
		return core.ResizeReport{}, fmt.Errorf("elastic: nil pipeline")
	}
	if newProcs < 1 {
		return core.ResizeReport{}, fmt.Errorf("elastic: invalid processor count %d", newProcs)
	}
	m, err := BuildMachine(newProcs, machineKind, coresPerNode)
	if err != nil {
		return core.ResizeReport{}, err
	}
	return p.ResizeGrid(m.Grid, m.Net, m.Model, m.Oracle)
}

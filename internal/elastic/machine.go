// Package elastic resizes running jobs: it rebuilds a pipeline's
// processor grid at a step boundary (redistributing every nest's blocks
// through the pooled Alltoallv path) and decides, fleet-wide, which jobs
// should grow or shrink — the paper's scratch-vs-diffusion reallocation
// decision lifted from nests inside one job to processors across jobs.
//
// The package sits between core and the serving layers: the scheduler
// (internal/service) calls Resize on a live pipeline when an operator or
// the autoscaler posts /jobs/{id}/resize, and the fleet controller
// (internal/fleet) feeds the Autoscaler its per-job load view.
package elastic

import (
	"fmt"
	"strings"

	"nestdiff/internal/geom"
	"nestdiff/internal/perfmodel"
	"nestdiff/internal/topology"
)

// Machine bundles the modelled hardware and the performance models a
// tracker needs: the process grid, the interconnect, and the profiled
// execution model with its oracle. It is configuration, not state — two
// machines built from the same parameters are interchangeable, which is
// what makes rebuilding one at a new size safe mid-run.
type Machine struct {
	Grid   geom.Grid
	Net    topology.Network
	Model  *perfmodel.ExecModel
	Oracle *perfmodel.Oracle
}

// BuildMachine constructs the modelled machine for a processor count and
// interconnect kind ("torus", "mesh" or "switched"; empty means torus).
// coresPerNode applies to switched machines (0 means 8).
func BuildMachine(cores int, kind string, coresPerNode int) (Machine, error) {
	if cores < 1 {
		return Machine{}, fmt.Errorf("elastic: invalid core count %d", cores)
	}
	if kind == "" {
		kind = "torus"
	}
	if coresPerNode <= 0 {
		coresPerNode = 8
	}
	px, py := geom.NearSquareFactors(cores)
	g := geom.NewGrid(px, py)
	var (
		net topology.Network
		err error
	)
	switch strings.ToLower(kind) {
	case "torus":
		net, err = topology.NewTorus3D(g, topology.TorusDimsFor(cores), topology.DefaultTorusParams())
	case "mesh":
		net, err = topology.NewMesh3D(g, topology.TorusDimsFor(cores), topology.DefaultTorusParams())
	case "switched":
		net, err = topology.NewSwitched(cores, coresPerNode, topology.DefaultSwitchedParams())
	default:
		err = fmt.Errorf("elastic: unknown machine %q (want torus, mesh or switched)", kind)
	}
	if err != nil {
		return Machine{}, err
	}
	model, oracle, err := profile()
	if err != nil {
		return Machine{}, err
	}
	return Machine{Grid: g, Net: net, Model: model, Oracle: oracle}, nil
}

// profile is the one recipe for the profiled execution model: the default
// oracle timed over the default sample domains and processor sizes. It is
// deterministic, so every machine's model predicts alike.
func profile() (*perfmodel.ExecModel, *perfmodel.Oracle, error) {
	oracle := perfmodel.DefaultOracle()
	model, err := perfmodel.Profile(oracle, perfmodel.DefaultSampleDomains(), perfmodel.DefaultProcSizes())
	return model, oracle, err
}

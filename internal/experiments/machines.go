// Package experiments regenerates every table and figure of the paper's
// evaluation (§V) on the simulated substrates: Table I/II allocation
// examples, the Fig. 8 diffusion walk-through, the Fig. 9 clustering
// comparison, the Table IV synthetic redistribution improvements, the
// Fig. 10 hop-bytes and Fig. 11 overlap series, the real-trace runs of
// §V-D, the dynamic-strategy study of §V-F / Fig. 12, and the ablations.
// A Report runs them once at one Settings; cmd/experiments prints it and
// testdata/paper_tables.golden pins it at the paper's settings.
package experiments

import (
	"fmt"

	"nestdiff/internal/geom"
	"nestdiff/internal/perfmodel"
	"nestdiff/internal/topology"
)

// Machine is one experimental platform of Table III.
type Machine struct {
	Name  string
	Cores int
	// Grid is the 2D process decomposition (Px·Py = Cores).
	Grid geom.Grid
	// Net models the interconnect.
	Net topology.Network
}

// BGL builds a Blue Gene/L partition of the given size: a 3D torus with
// the folding-based topology-aware mapping of §V-C.
func BGL(cores int) (Machine, error) {
	px, py := geom.NearSquareFactors(cores)
	g := geom.NewGrid(px, py)
	net, err := topology.NewTorus3D(g, topology.TorusDimsFor(cores), topology.DefaultTorusParams())
	if err != nil {
		return Machine{}, fmt.Errorf("experiments: BGL(%d): %w", cores, err)
	}
	return Machine{Name: fmt.Sprintf("BG/L %d cores", cores), Cores: cores, Grid: g, Net: net}, nil
}

// Fist builds the Intel Xeon / Infiniband cluster of Table III: 8-core
// nodes on a switched fabric.
func Fist(cores int) (Machine, error) {
	px, py := geom.NearSquareFactors(cores)
	g := geom.NewGrid(px, py)
	net, err := topology.NewSwitched(cores, 8, topology.DefaultSwitchedParams())
	if err != nil {
		return Machine{}, fmt.Errorf("experiments: fist(%d): %w", cores, err)
	}
	return Machine{Name: fmt.Sprintf("fist %d cores", cores), Cores: cores, Grid: g, Net: net}, nil
}

// sharedModel caches one profiled execution model per process (profiling
// is deterministic, so sharing is safe).
var sharedOracle = perfmodel.DefaultOracle()
var sharedModel *perfmodel.ExecModel

// Model returns the lazily profiled shared execution model.
func Model() (*perfmodel.ExecModel, *perfmodel.Oracle, error) {
	if sharedModel == nil {
		m, err := perfmodel.Profile(sharedOracle, perfmodel.DefaultSampleDomains(), perfmodel.DefaultProcSizes())
		if err != nil {
			return nil, nil, err
		}
		sharedModel = m
	}
	return sharedModel, sharedOracle, nil
}

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

	"nestdiff/internal/elastic"
)

// Machine is one experimental platform of Table III: the modelled
// machine under the name the tables print.
type Machine struct {
	Name string
	elastic.Machine
}

// BGL builds a Blue Gene/L partition of the given size: a 3D torus with
// the folding-based topology-aware mapping of §V-C.
func BGL(cores int) (Machine, error) {
	m, err := elastic.BuildMachine(cores, "torus", 8)
	if err != nil {
		return Machine{}, fmt.Errorf("experiments: BGL(%d): %w", cores, err)
	}
	return Machine{Name: fmt.Sprintf("BG/L %d cores", cores), Machine: m}, nil
}

// Fist builds the Intel Xeon / Infiniband cluster of Table III: 8-core
// nodes on a switched fabric.
func Fist(cores int) (Machine, error) {
	m, err := elastic.BuildMachine(cores, "switched", 8)
	if err != nil {
		return Machine{}, fmt.Errorf("experiments: fist(%d): %w", cores, err)
	}
	return Machine{Name: fmt.Sprintf("fist %d cores", cores), Machine: m}, nil
}

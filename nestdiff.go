// Package nestdiff is a library for tracking multiple dynamically varying
// weather phenomena with nested simulations, reproducing Malakar et al.,
// "A Diffusion-Based Processor Reallocation Strategy for Tracking Multiple
// Dynamically Varying Weather Phenomena" (ICPP 2013).
//
// The library bundles:
//
//   - a surrogate weather model producing QCLOUD/OLR fields with multiple
//     transient organized cloud systems, plus 3×-resolution nested
//     simulations (package internal/wrfsim);
//   - the parallel data analysis algorithm that detects tall-cloud regions
//     from per-rank split files, with the paper's nearest-neighbour
//     clustering variant (internal/pda);
//   - Huffman-tree processor allocation of rectangular processor sub-grids
//     to nests, the partition-from-scratch strategy, the tree-based
//     hierarchical diffusion reallocation (Algorithm 3), and the dynamic
//     strategy that predicts both and picks the cheaper (internal/alloc,
//     internal/core);
//   - modelled interconnects (Blue Gene/L-style 3D torus with a
//     folding-based topology mapping, and a switched cluster), an
//     MPI-like in-process runtime with virtual time, block-intersection
//     Alltoallv redistribution plans and their metrics — time, hop-bytes,
//     sender/receiver overlap (internal/topology, internal/mpi,
//     internal/redist);
//   - the execution-time performance model built by Delaunay interpolation
//     over profiled domain sizes (internal/perfmodel).
//
// This package is the public facade: it re-exports the types needed to
// assemble the pieces and provides the System convenience constructor
// used by the examples. Entry points:
//
//	sys, _ := nestdiff.NewTorusSystem(1024)           // machine + models
//	tr, _ := sys.NewTracker(nestdiff.Diffusion)       // reallocation state
//	tr.Apply(set)                                     // adaptation point
//
// or, for the full simulation loop, System.NewPipeline.
package nestdiff

import (
	"fmt"
	"io"

	"nestdiff/internal/alloc"
	"nestdiff/internal/core"
	"nestdiff/internal/elastic"
	"nestdiff/internal/field"
	"nestdiff/internal/geom"
	"nestdiff/internal/mpi"
	"nestdiff/internal/pda"
	"nestdiff/internal/perfmodel"
	"nestdiff/internal/redist"
	"nestdiff/internal/scenario"
	"nestdiff/internal/topology"
	"nestdiff/internal/wrfsim"
)

// Geometry.
type (
	// Rect is a half-open rectangle on a discrete grid.
	Rect = geom.Rect
	// Grid is a 2D process grid with row-major rank numbering.
	Grid = geom.Grid
)

// NewRect returns the rectangle at (x, y) with extents w×h.
func NewRect(x, y, w, h int) Rect { return geom.NewRect(x, y, w, h) }

// NewGrid returns a Px×Py process grid.
func NewGrid(px, py int) Grid { return geom.NewGrid(px, py) }

// Weather model.
type (
	// WeatherConfig parameterizes the surrogate weather model.
	WeatherConfig = wrfsim.Config
	// WeatherModel is the running parent simulation.
	WeatherModel = wrfsim.Model
	// Cell is one convective system.
	Cell = wrfsim.Cell
	// Split is one rank's split-file output.
	Split = wrfsim.Split
)

// DefaultWeatherConfig returns the laptop-scale Indian-region
// configuration.
func DefaultWeatherConfig() WeatherConfig { return wrfsim.DefaultConfig() }

// NewWeatherModel builds a surrogate weather model.
func NewWeatherModel(cfg WeatherConfig) (*WeatherModel, error) { return wrfsim.NewModel(cfg) }

// Detection.
type (
	// PDAOptions are the cloud-detection thresholds of Algorithms 1–2.
	PDAOptions = pda.Options
	// Cluster is a contiguous region of strong cloud cover.
	Cluster = pda.Cluster
)

// DefaultPDAOptions returns the paper's detection thresholds.
func DefaultPDAOptions() PDAOptions { return pda.DefaultOptions() }

// Scenarios.
type (
	// Set is the active nest configuration at an adaptation point.
	Set = scenario.Set
	// SyntheticConfig parameterizes the random churn generator.
	SyntheticConfig = scenario.Config
	// MonsoonConfig parameterizes the scripted monsoon scenario.
	MonsoonConfig = scenario.MonsoonConfig
	// TimedCell schedules a convective-cell genesis.
	TimedCell = scenario.TimedCell
)

// DefaultSyntheticConfig returns the paper's synthetic churn parameters.
func DefaultSyntheticConfig() SyntheticConfig { return scenario.DefaultSyntheticConfig() }

// GenerateSynthetic produces a deterministic nest-churn sequence.
func GenerateSynthetic(cfg SyntheticConfig) ([]Set, error) { return scenario.Generate(cfg) }

// DefaultMonsoonConfig returns the Mumbai-2005-calibrated scenario.
func DefaultMonsoonConfig() MonsoonConfig { return scenario.DefaultMonsoonConfig() }

// MonsoonSchedule builds the deterministic genesis schedule of the
// scripted monsoon.
func MonsoonSchedule(cfg MonsoonConfig) []TimedCell { return scenario.MonsoonSchedule(cfg) }

// Allocation and strategies.
type (
	// AllocationRow is one allocation-table line (Table I format).
	AllocationRow = alloc.Row
	// Strategy selects the reallocation policy.
	Strategy = core.Strategy
	// Tracker owns nest allocation state across adaptation points.
	Tracker = core.Tracker
	// Pipeline runs the full simulation + detection + reallocation loop.
	Pipeline = core.Pipeline
	// PipelineConfig wires a Pipeline.
	PipelineConfig = core.PipelineConfig
)

// Reallocation strategies.
const (
	// Scratch rebuilds the Huffman tree from the new weights (§IV-A).
	Scratch = core.Scratch
	// Diffusion reorganizes the existing tree (Algorithm 3, §IV-B).
	Diffusion = core.Diffusion
	// Dynamic predicts both and picks the cheaper (§IV-C).
	Dynamic = core.Dynamic
)

// Networks and redistribution.
type (
	// Network is a modelled interconnect.
	Network = topology.Network
	// Transfer describes one nest's redistribution.
	Transfer = redist.Transfer
	// Field is a dense 2D scalar grid.
	Field = field.Field
)

// System bundles a machine model (process grid + interconnect) with the
// profiled performance models, ready to build trackers and pipelines.
type System struct {
	Grid   Grid
	Net    Network
	Model  *perfmodel.ExecModel
	Oracle *perfmodel.Oracle
}

// NewTorusSystem builds a Blue Gene/L-style system: a 3D torus with the
// folding-based topology-aware mapping over a near-square process grid of
// the given core count.
func NewTorusSystem(cores int) (*System, error) {
	m, err := elastic.BuildMachine(cores, "torus", 0)
	if err != nil {
		return nil, err
	}
	sys := System(m)
	return &sys, nil
}

// NewTracker builds a reallocation tracker on the system with default
// options.
func (s *System) NewTracker(strategy Strategy) (*Tracker, error) {
	return core.NewTracker(s.Grid, s.Net, s.Model, s.Oracle, strategy, core.DefaultOptions())
}

// NewPipeline assembles the full simulation loop around a weather model
// and a tracker built on this system.
func (s *System) NewPipeline(m *WeatherModel, tr *Tracker, cfg PipelineConfig) (*Pipeline, error) {
	return core.NewPipeline(m, tr, cfg)
}

// RedistributeField executes one nest redistribution through the MPI-like
// runtime on the system's network, returning the reassembled field and
// the modelled exchange time.
func (s *System) RedistributeField(tr Transfer, src *Field) (*Field, float64, error) {
	w, err := mpi.NewWorld(s.Grid.Size(), mpi.Config{Net: s.Net})
	if err != nil {
		return nil, 0, err
	}
	defer w.Close()
	return core.RedistributeField(w, s.Grid, tr, src)
}

// AnalyzeSplitsParallel runs the fully parallel analysis pipeline (local
// clustering per rank + cluster-level merge at the root — the paper's
// future-work extension, pda.RunParallelNNC) over the splits of the
// process grid pg with the given number of analysis ranks. It is not the
// analysis a Pipeline runs (pda.RunParallel: aggregates gathered at the
// root, one NNC there), and on the same state it can return other
// clusters: on FuzzPDADecomposition's ragged-7x7-over-13-ranks case it
// finds 2 where the pipeline finds 3 (EXPERIMENTS.md, "PDA in place").
func AnalyzeSplitsParallel(splits []Split, pg Grid, ranks int, opt PDAOptions) ([]Rect, []Cluster, error) {
	net, err := topology.NewSwitched(ranks, 8, topology.DefaultSwitchedParams())
	if err != nil {
		return nil, nil, err
	}
	w, err := mpi.NewWorld(ranks, mpi.Config{Net: net})
	if err != nil {
		return nil, nil, err
	}
	defer w.Close()
	loader := func(rank int) (Split, error) {
		if rank < 0 || rank >= len(splits) {
			return Split{}, fmt.Errorf("nestdiff: no split for rank %d", rank)
		}
		return splits[rank], nil
	}
	res, err := pda.RunParallelNNC(w, pg, loader, opt)
	if err != nil {
		return nil, nil, err
	}
	return res.Rects, res.Clusters, nil
}

// RestorePipeline rebuilds a pipeline on this system from a checkpoint
// written by Pipeline.SaveState. The restored pipeline continues
// bit-identically to the one that was saved.
func (s *System) RestorePipeline(r io.Reader) (*Pipeline, error) {
	return core.RestorePipeline(r, s.Net, s.Model, s.Oracle)
}

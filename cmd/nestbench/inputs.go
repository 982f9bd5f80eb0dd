package main

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"math"
	"sort"
	"strings"

	"nestdiff/internal/core"
	"nestdiff/internal/elastic"
	"nestdiff/internal/geom"
	"nestdiff/internal/pda"
	"nestdiff/internal/scenario"
	"nestdiff/internal/service"
	"nestdiff/internal/wrfsim"
)

// subSeed derives an input seed from the run's -seed and a path of small
// integers (workload, episode, job index). Every random input of the
// benchmark comes from here, so -seed alone fixes them all; the program
// under test only ever sees the generated inputs. SplitMix64 finalizer per
// path element; the result is never 0 because the service layer reads a
// zero job seed as "use the default".
func subSeed(seed int64, path ...int64) int64 {
	x := uint64(seed)
	for _, p := range path {
		x += 0x9e3779b97f4a7c15 + uint64(p)
		x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
		x = (x ^ (x >> 27)) * 0x94d049bb133111eb
		x ^= x >> 31
	}
	out := int64(x >> 1)
	if out == 0 {
		out = 1
	}
	return out
}

// Workload indices for subSeed paths.
const (
	seedTrack = iota + 1 // shared by track-serial and track-distributed: same schedule
	seedChurn
	seedCkpt
	seedFleet
)

// trackInput is what a pipeline workload runs on: the genesis schedule
// generated from the seed plus everything needed to build a fresh pipeline
// that replays it.
type trackInput struct {
	spec  workloadSpec
	seed  int64
	sched []scenario.TimedCell
	nx    int
	ny    int
}

// genTrackInput generates the monsoon genesis schedule for one episode.
func genTrackInput(spec workloadSpec, seed int64) (trackInput, error) {
	if strings.ToLower(spec.Scenario) != "monsoon" {
		return trackInput{}, fmt.Errorf("%s: scenario %q not supported by the benchmark (want monsoon)", spec.Name, spec.Scenario)
	}
	mc := scenario.DefaultMonsoonConfig()
	mc.Steps = spec.ScheduleSteps
	mc.Seed = seed
	in := trackInput{spec: spec, seed: seed, nx: mc.NX, ny: mc.NY}
	// A positive spawn rate means the model's own seeded genesis drives
	// the weather and there is no external schedule (see ckpt-cycle).
	if spec.SpawnRate == 0 {
		in.sched = scenario.MonsoonSchedule(mc)
	}
	return in, nil
}

// pipelineRun is a live pipeline plus its schedule cursor — the
// benchmark's copy of service.run, which is unexported: inject the cells
// scheduled for the upcoming parent step, then Pipeline.Step.
type pipelineRun struct {
	pipe    *core.Pipeline
	machine elastic.Machine
	sched   []scenario.TimedCell
	si      int
}

// build assembles a fresh pipeline the way service.newRun does for a
// scripted scenario: machine + perfmodel profile, tracker, compact-storm
// weather parameters, pipeline.
func (in trackInput) build() (*pipelineRun, error) {
	spec := in.spec
	strat, err := service.ParseStrategy(spec.Strategy)
	if err != nil {
		return nil, err
	}
	m, err := elastic.BuildMachine(spec.Cores, spec.Machine, 0)
	if err != nil {
		return nil, err
	}
	tracker, err := core.NewTracker(m.Grid, m.Net, m.Model, m.Oracle, strat, core.DefaultOptions())
	if err != nil {
		return nil, err
	}
	wcfg := wrfsim.DefaultConfig()
	wcfg.NX, wcfg.NY = in.nx, in.ny
	wcfg.SpawnRate = spec.SpawnRate
	wcfg.Seed = in.seed
	wcfg.MergeEnabled = true
	wcfg.DecayTau = 2400
	wcfg.OLRPerQ = 10
	model, err := wrfsim.NewModel(wcfg)
	if err != nil {
		return nil, err
	}
	pipe, err := core.NewPipeline(model, tracker, core.PipelineConfig{
		WRFGrid:       geom.NewGrid(spec.WRFGrid[0], spec.WRFGrid[1]),
		AnalysisRanks: spec.AnalysisRanks,
		Interval:      spec.Interval,
		PDA:           pda.DefaultOptions(),
		MaxNests:      spec.MaxNests,
		Distributed:   spec.Distributed,
	})
	if err != nil {
		return nil, err
	}
	return &pipelineRun{pipe: pipe, machine: m, sched: in.sched}, nil
}

// step is service.run.step: inject, then advance one parent step.
func (r *pipelineRun) step() error {
	if err := r.inject(); err != nil {
		return err
	}
	return r.pipe.Step()
}

// steps advances n parent steps.
func (r *pipelineRun) steps(n int) error {
	for i := 0; i < n; i++ {
		if err := r.step(); err != nil {
			return err
		}
	}
	return nil
}

func (r *pipelineRun) inject() error {
	at := r.pipe.StepCount()
	for r.si < len(r.sched) && r.sched[r.si].AtStep == at {
		if err := r.pipe.Model().InjectCell(r.sched[r.si].Cell); err != nil {
			return err
		}
		r.si++
	}
	return nil
}

// eventDigest hashes the adaptation events a pipeline recorded up to and
// including step `upto`: step, the nest set, the diff, the strategy used
// and the modelled costs. ExecutedRedistTime is left out on purpose — only
// distributed pipelines have it, and the digest is what proves a
// distributed run made the same decisions as the serial one.
func eventDigest(events []core.AdaptationEvent, upto int) string {
	h := fnv.New64a()
	for _, e := range events {
		if e.Step > upto {
			break
		}
		fmt.Fprintf(h, "s%d|", e.Step)
		for _, n := range e.Set {
			fmt.Fprintf(h, "%d:%v,", n.ID, n.Region)
		}
		fmt.Fprintf(h, "|+%v-%v=%v|u%d|%x|%x|%x|%d;",
			e.Diff.Added, e.Diff.Deleted, e.Diff.Retained, e.Metrics.Used,
			e.Metrics.RedistTime, e.Metrics.ExecTime, e.Metrics.Redist.HopBytes, e.Metrics.Redist.RemoteBytes)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// fieldCRC is a CRC-32C over the raw float64 bits of a field.
func fieldCRC(data []float64) uint32 {
	var buf [8 * 512]byte
	crc := uint32(0)
	for len(data) > 0 {
		n := min(len(data), 512)
		for i, v := range data[:n] {
			binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
		}
		crc = crc32.Update(crc, castagnoli, buf[:8*n])
		data = data[n:]
	}
	return crc
}

// stateCRC folds the model field and every live serial nest field (in
// nest-ID order) into one checksum: two pipelines with equal stateCRC at
// the same step hold bit-identical fields.
func stateCRC(p *core.Pipeline) uint32 {
	crc := fieldCRC(p.Model().QCloud().Data)
	ids := make([]int, 0, len(p.Nests()))
	for id := range p.Nests() {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		crc = crc*31 + uint32(id)
		crc ^= fieldCRC(p.Nests()[id].QCloud().Data)
	}
	return crc
}

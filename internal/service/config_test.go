package service

import (
	"testing"

	"nestdiff/internal/elastic"
	"nestdiff/internal/geom"
	"nestdiff/internal/pda"
)

// TestBuildPipelineScriptedRecipe pins the scripted-scenario recipe
// BuildPipeline gives every job and cmd/nestsim run: the 18×15 split grid
// of the 180×105 scripted domain, compact storms, merging off only for the
// self-renewing cyclone, and the defaults a bare config fills in.
func TestBuildPipelineScriptedRecipe(t *testing.T) {
	for _, scen := range []string{"monsoon", "cyclone", "burst"} {
		pipe, err := BuildPipeline(JobConfig{Cores: 64, Scenario: scen, Steps: 10})
		if err != nil {
			t.Fatalf("%s: %v", scen, err)
		}
		pc, wc := pipe.Config(), pipe.Model().Config()
		if pc.WRFGrid != geom.NewGrid(18, 15) || pc.MaxNests != 9 || pc.Interval != 5 || pc.AnalysisRanks != 16 || pc.PDA != pda.DefaultOptions() {
			t.Errorf("%s: pipeline config %+v", scen, pc)
		}
		if wc.NX != 180 || wc.NY != 105 || wc.SpawnRate != 0 || len(wc.Genesis) == 0 {
			t.Errorf("%s: domain %dx%d, spawn rate %v, %d scripted storms", scen, wc.NX, wc.NY, wc.SpawnRate, len(wc.Genesis))
		}
		if wc.DecayTau != 2400 || wc.OLRPerQ != 10 {
			t.Errorf("%s: DecayTau %v, OLRPerQ %v, want 2400, 10", scen, wc.DecayTau, wc.OLRPerQ)
		}
		if wc.MergeEnabled != (scen != "cyclone") {
			t.Errorf("%s: MergeEnabled %v", scen, wc.MergeEnabled)
		}
		if g := pipe.Tracker().Grid(); g.Size() != 64 {
			t.Errorf("%s: %d-processor grid, want 64", scen, g.Size())
		}
	}
}

// TestValidateMachineKinds checks that JobConfig.Validate accepts exactly
// the machine kinds elastic.BuildMachine builds, in any letter case.
func TestValidateMachineKinds(t *testing.T) {
	for kind, want := range map[string]bool{
		"": true, "torus": true, "mesh": true, "switched": true,
		"TORUS": true, "Mesh": true, "sWiTcHeD": true,
		"fist": false, "bgl": false, "ring": false, " torus": false, "torus3d": false, "sh": false,
	} {
		_, buildErr := elastic.BuildMachine(64, kind, 0)
		err := JobConfig{Cores: 64, Steps: 10, Machine: kind}.Validate()
		if (err == nil) != want || (buildErr == nil) != want {
			t.Errorf("machine %q: Validate error %v, BuildMachine error %v, want accepted = %v", kind, err, buildErr, want)
		}
	}
}

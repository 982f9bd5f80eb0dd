package core

import (
	"bytes"
	"os"
	"testing"

	"nestdiff/internal/geom"
)

const (
	v2ChainFixturePath  = "testdata/v2-chain-dist-diffusion.ckpt"
	v2ChainFixtureSteps = 120
)

// TestV2ChainFixtureCrossCommitRestore pins the v2 chain format across
// reader and writer rewrites: the committed file is a chain cut by an
// earlier writer (distributed pipeline, MaxDeltas 64: a base at step 60
// and three replay deltas 20 steps apart). It was cut again when
// distributed nests came to step the serial nests' bits, since its replay
// CRCs record the fields a restore must reproduce. gob's map order makes a
// base's bytes differ run to run, so this file, not a digest of fresh
// output, is what proves old chains keep restoring — it must validate,
// restore at the last delta's step, and continue exactly as a run that
// was never interrupted.
func TestV2ChainFixtureCrossCommitRestore(t *testing.T) {
	data, err := os.ReadFile(v2ChainFixturePath)
	if err != nil {
		t.Fatalf("committed v2 chain fixture missing: %v", err)
	}
	if err := ValidateCheckpoint(data); err != nil {
		t.Fatalf("v2 chain fixture failed validation: %v", err)
	}
	blobs := splitChain(t, data)
	if len(blobs) != 4 {
		t.Fatalf("fixture holds %d blobs, want a base and 3 deltas", len(blobs))
	}

	const total = 200
	g := geom.NewGrid(8, 6)
	ref := checkpointPipeline(t, g, Diffusion, true)
	if err := ref.Run(total); err != nil {
		t.Fatal(err)
	}
	net, model, oracle := testEnv(t, g)
	resumed, err := RestorePipeline(bytes.NewReader(data), net, model, oracle)
	if err != nil {
		t.Fatalf("v2 chain fixture no longer restores: %v", err)
	}
	if resumed.StepCount() != v2ChainFixtureSteps {
		t.Fatalf("v2 chain fixture restored at step %d, want %d", resumed.StepCount(), v2ChainFixtureSteps)
	}
	eventsAtCut := len(resumed.Events())
	if err := resumed.Run(total - v2ChainFixtureSteps); err != nil {
		t.Fatal(err)
	}
	requireSameTail(t, ref, resumed, eventsAtCut)
}

// splitChain cuts a valid v2 chain into its blobs.
func splitChain(t testing.TB, chain []byte) [][]byte {
	t.Helper()
	var blobs [][]byte
	for off := 0; off < len(chain); {
		_, _, size, err := parseBlob(chain[off:])
		if err != nil {
			t.Fatalf("blob %d: %v", len(blobs), err)
		}
		blobs = append(blobs, chain[off:off+size])
		off += size
	}
	return blobs
}

// requireSameTail fails unless the resumed pipeline's adaptation events
// from index from on (steps, metrics, executed redistribution times) and
// its final nest set equal the uninterrupted reference's.
func requireSameTail(t *testing.T, ref, resumed *Pipeline, from int) {
	t.Helper()
	refEvents, resEvents := ref.Events(), resumed.Events()
	if len(refEvents) != len(resEvents) {
		t.Fatalf("event count diverged: uninterrupted %d, resumed %d", len(refEvents), len(resEvents))
	}
	if len(refEvents) == from {
		t.Fatal("no adaptation events after the restore point; tail comparison is vacuous")
	}
	for i := from; i < len(refEvents); i++ {
		a, b := refEvents[i], resEvents[i]
		if a.Step != b.Step || !stepMetricsEqual(a.Metrics, b.Metrics) ||
			a.ExecutedRedistTime != b.ExecutedRedistTime {
			t.Fatalf("event %d diverged:\nuninterrupted %+v\nresumed       %+v", i, a, b)
		}
	}
	a, b := ref.ActiveSet(), resumed.ActiveSet()
	if len(a) != len(b) {
		t.Fatalf("final nest sets differ in size: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("final nest %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

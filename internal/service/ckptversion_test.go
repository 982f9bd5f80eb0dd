package service

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"nestdiff/internal/core"
	"nestdiff/internal/wrfsim"
)

// TestV1EnvelopesRejectedAsUnsupported: the first-generation envelopes —
// NDCP v1 (one gob payload under a 17-byte header) and NDJB v1 (no epoch
// field) — are no longer read. Every entry point names the version it
// refuses instead of decoding part of the file, and none panics.
func TestV1EnvelopesRejectedAsUnsupported(t *testing.T) {
	cfg := smallJob(10).withDefaults()
	cfgJSON, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// NDCP v1: magic | 1 | payload length (8) | CRC-32C (4) | payload,
	// every field consistent, so only the version can be the objection.
	payload := bytes.Repeat([]byte("gob"), 40)
	ndcp := append([]byte("NDCP\x01"), make([]byte, 12)...)
	binary.LittleEndian.PutUint64(ndcp[5:13], uint64(len(payload)))
	binary.LittleEndian.PutUint32(ndcp[13:17], crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
	ndcp = append(ndcp, payload...)
	// ... and the same bytes as the pipeline state of a current NDJB file.
	wrapped, err := encodeJobCheckpoint(cfg, 3, ndcp)
	if err != nil {
		t.Fatal(err)
	}

	// NDJB v1: magic | 1 | config length (4) | CRC-32C (4) | config JSON.
	ndjb := append([]byte("NDJB\x01"), make([]byte, 8)...)
	binary.LittleEndian.PutUint32(ndjb[5:9], uint32(len(cfgJSON)))
	binary.LittleEndian.PutUint32(ndjb[9:13], crc32.Checksum(cfgJSON, jobCkptCRC))
	ndjb = append(ndjb, cfgJSON...)

	s := NewScheduler(SchedulerConfig{Workers: 1})
	defer s.Shutdown(context.Background())
	srv := httptest.NewServer(NewHandler(s))
	defer srv.Close()
	postImport := func(data []byte) error {
		resp, err := http.Post(srv.URL+"/jobs/old/import", "application/octet-stream", bytes.NewReader(data))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("import answered %d, want 400: %s", resp.StatusCode, body)
		}
		return &importError{string(body)}
	}
	decode := func(data []byte) error {
		_, _, state, err := decodeJobCheckpoint(data)
		if err != nil && state != nil {
			t.Errorf("decodeJobCheckpoint returned %d state bytes beside %v", len(state), err)
		}
		return err
	}

	for _, tc := range []struct {
		name  string
		want  string
		entry func() error
	}{
		{"NDCP v1 / ValidateCheckpoint", "unsupported checkpoint envelope version 1",
			func() error { return core.ValidateCheckpoint(ndcp) }},
		{"NDCP v1 / RestorePipeline", "unsupported checkpoint envelope version 1",
			func() error {
				p, err := core.RestorePipeline(bytes.NewReader(ndcp), nil, nil, nil)
				if p != nil {
					t.Error("RestorePipeline returned a pipeline beside its error")
				}
				return err
			}},
		{"NDCP v1 in NDJB v2 / decodeJobCheckpoint", "unsupported checkpoint envelope version 1",
			func() error { return decode(wrapped) }},
		{"NDCP v1 in NDJB v2 / import", "unsupported checkpoint envelope version 1",
			func() error { return postImport(wrapped) }},
		{"NDJB v1 / decodeJobCheckpoint", "unsupported version 1",
			func() error { return decode(ndjb) }},
		{"NDJB v1 / jobCheckpointEpoch", "unsupported version 1",
			func() error { _, err := jobCheckpointEpoch(ndjb); return err }},
		{"NDJB v1 / import", "unsupported version 1",
			func() error { return postImport(ndjb) }},
	} {
		if err := tc.entry(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one naming %q", tc.name, err, tc.want)
		}
	}
	if n := len(s.List()); n != 0 {
		t.Fatalf("%d jobs registered from rejected envelopes", n)
	}
}

// importError carries an HTTP error body through the table's error column.
type importError struct{ body string }

func (e *importError) Error() string { return e.body }

// TestRestoreRunRefusesCheckpointWithoutSchedule: a checkpoint carries its
// model's genesis schedule, and restoreRun refuses one whose schedule is
// not the job's. A monsoon base cut by a model with no schedule (written
// before the model carried it, or for another job) would otherwise resume
// with no future storms. A cells job, whose schedule is empty on both
// sides, restores as before.
func TestRestoreRunRefusesCheckpointWithoutSchedule(t *testing.T) {
	save := func(p *core.Pipeline) []byte {
		var buf bytes.Buffer
		if err := p.SaveState(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	monsoon := monsoonChaosJob(40)
	r, err := newRun(monsoon)
	if err != nil {
		t.Fatal(err)
	}
	mcfg := r.pipe.Model().Config()
	want := len(mcfg.Genesis)
	mcfg.Genesis = nil
	bare, err := wrfsim.NewModel(mcfg)
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.NewPipeline(bare, r.pipe.Tracker(), r.pipe.Config())
	if err != nil {
		t.Fatal(err)
	}
	_, err = restoreRun(monsoon, save(p))
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("0-entry genesis schedule, scenario %q generates %d", "monsoon", want)) {
		t.Fatalf("restore of a schedule-less monsoon base: %v, want a refusal naming 0 and %d entries", err, want)
	}

	cells := smallJob(40)
	r, err = newRun(cells)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.pipe.Run(10); err != nil {
		t.Fatal(err)
	}
	restored, err := restoreRun(cells, save(r.pipe))
	if err != nil {
		t.Fatalf("cells job restore: %v", err)
	}
	if restored.pipe.StepCount() != 10 {
		t.Fatalf("cells job restored at step %d, want 10", restored.pipe.StepCount())
	}
}

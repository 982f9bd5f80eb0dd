package service

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"

	"nestdiff/internal/core"
)

// Job checkpoint files (<CheckpointDir>/<jobID>.ckpt) carry everything a
// scheduler needs to re-register and later resume a job it has never seen:
// the JobConfig (the machine and performance models are rebuilt from it —
// they are configuration, not state) followed by the CRC-enveloped
// pipeline checkpoint from core.SaveState. The outer envelope is
//
//	magic "NDJB" (4) | version (1) | config length (4, LE) | CRC-32C of config (4) | placement epoch (8, LE) | config JSON | pipeline checkpoint
//
// so the config is integrity-checked independently of the pipeline
// payload (whose own NDCP envelope covers the rest). This is what makes
// cross-worker job adoption and startup recovery safe by construction: a
// torn or bit-flipped file fails one of the two checksums and is rejected
// outright instead of resuming a corrupted simulation.
//
// The placement epoch (version 2) is the fleet's fencing token: the
// controller bumps it every time a job is adopted or migrated, and a
// worker writing to the shared store refuses to overwrite a file carrying
// a higher epoch than its own copy of the job. A worker that was merely
// partitioned — not dead — therefore cannot clobber the checkpoints of
// the survivor that adopted its job, no matter how long the partition
// lasts. Version 1 files (no epoch field; nothing writes them any more)
// are rejected as unsupported.
var jobCkptMagic = [4]byte{'N', 'D', 'J', 'B'}

const (
	jobCkptVersion   = 2
	jobCkptHeaderLen = 4 + 1 + 4 + 4 + 8
	// jobCkptMaxConfig bounds the allocation a corrupt header can demand.
	jobCkptMaxConfig = 1 << 24
)

var jobCkptCRC = crc32.MakeTable(crc32.Castagnoli)

// encodeJobCheckpoint frames cfg, the placement epoch and a pipeline
// checkpoint into the job checkpoint file format. The Faults field is
// json:"-" and is therefore never persisted: a job recovered or adopted
// from disk runs fault-free.
func encodeJobCheckpoint(cfg JobConfig, epoch int64, state []byte) ([]byte, error) {
	cfgJSON, err := json.Marshal(cfg)
	if err != nil {
		return nil, fmt.Errorf("service: encode job checkpoint: %w", err)
	}
	out := make([]byte, jobCkptHeaderLen, jobCkptHeaderLen+len(cfgJSON)+len(state))
	copy(out[:4], jobCkptMagic[:])
	out[4] = jobCkptVersion
	binary.LittleEndian.PutUint32(out[5:9], uint32(len(cfgJSON)))
	binary.LittleEndian.PutUint32(out[9:13], crc32.Checksum(cfgJSON, jobCkptCRC))
	binary.LittleEndian.PutUint64(out[13:21], uint64(epoch))
	out = append(out, cfgJSON...)
	out = append(out, state...)
	return out, nil
}

// jobCkptHeader validates the fixed-size header and returns the config
// length and the epoch.
func jobCkptHeader(data []byte) (cfgLen uint32, epoch int64, err error) {
	if len(data) < jobCkptHeaderLen {
		return 0, 0, fmt.Errorf("service: job checkpoint: %d bytes is shorter than the header", len(data))
	}
	if string(data[:4]) != string(jobCkptMagic[:]) {
		return 0, 0, fmt.Errorf("service: job checkpoint: bad magic %q", data[:4])
	}
	if data[4] != jobCkptVersion {
		return 0, 0, fmt.Errorf("service: job checkpoint: unsupported version %d", data[4])
	}
	cfgLen = binary.LittleEndian.Uint32(data[5:9])
	if cfgLen == 0 || cfgLen > jobCkptMaxConfig {
		return 0, 0, fmt.Errorf("service: job checkpoint: implausible config length %d", cfgLen)
	}
	return cfgLen, int64(binary.LittleEndian.Uint64(data[13:21])), nil
}

// jobCheckpointEpoch reads the placement epoch from an envelope without
// decoding the config or pipeline payload — the cheap check the persist
// path runs before overwriting a shared-store file.
func jobCheckpointEpoch(data []byte) (int64, error) {
	_, epoch, err := jobCkptHeader(data)
	return epoch, err
}

// decodeJobCheckpoint parses and integrity-checks a job checkpoint file,
// returning the job's config, its placement epoch and the raw pipeline
// checkpoint (empty if the job was persisted before its first pipeline
// checkpoint — it restarts from scratch). The pipeline payload is
// validated against its own envelope (magic, length, CRC per delta-chain
// record) without decoding the field payloads, so a recovery scan over
// many files stays cheap.
//
// A payload whose delta-chain tail is torn — the writer died mid-append —
// returns the config, epoch and state alongside an error satisfying
// errors.Is(err, core.ErrDeltaChainBroken): the chain's intact prefix is
// still restorable, and core.RestorePipeline falls back to it. Callers
// decide whether to resume from the prefix or reject the file.
func decodeJobCheckpoint(data []byte) (JobConfig, int64, []byte, error) {
	n, epoch, err := jobCkptHeader(data)
	if err != nil {
		return JobConfig{}, 0, nil, err
	}
	if uint32(len(data)-jobCkptHeaderLen) < n {
		return JobConfig{}, 0, nil, fmt.Errorf("service: job checkpoint: torn file (%d bytes after header, config claims %d)", len(data)-jobCkptHeaderLen, n)
	}
	cfgJSON := data[jobCkptHeaderLen : jobCkptHeaderLen+int(n)]
	if sum := crc32.Checksum(cfgJSON, jobCkptCRC); sum != binary.LittleEndian.Uint32(data[9:13]) {
		return JobConfig{}, 0, nil, fmt.Errorf("service: job checkpoint: config checksum mismatch")
	}
	var cfg JobConfig
	if err := json.Unmarshal(cfgJSON, &cfg); err != nil {
		return JobConfig{}, 0, nil, fmt.Errorf("service: job checkpoint: %w", err)
	}
	if err := cfg.Validate(); err != nil {
		return JobConfig{}, 0, nil, fmt.Errorf("service: job checkpoint: %w", err)
	}
	state := data[jobCkptHeaderLen+int(n):]
	if len(state) == 0 {
		return cfg, epoch, nil, nil
	}
	if err := core.ValidateCheckpoint(state); err != nil {
		if errors.Is(err, core.ErrDeltaChainBroken) {
			return cfg, epoch, state, err
		}
		return JobConfig{}, 0, nil, err
	}
	return cfg, epoch, state, nil
}

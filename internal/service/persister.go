package service

import (
	"encoding/json"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"

	"nestdiff/internal/durable"
)

// The persister is the scheduler's asynchronous checkpoint-persistence
// tier: workers encode checkpoints on the step loop but hand the file
// I/O (and its fsync) to a single background goroutine through a FIFO
// queue, so disk latency never extends a step boundary. Ordering per job
// is guaranteed by the single consumer; a pause waits for its own op to
// land (via ckptOp.done) so a drain leaves complete files behind.
//
// Delta checkpoints exploit the queue's ordering for an append-mode fast
// path: when the persister knows the incumbent file is exactly the
// config prefix plus the chain it has written so far (same epoch, same
// config bytes, same size on disk), a delta op appends only the new blob
// with O_APPEND + fsync instead of rewriting the whole chain. Anything
// that breaks that invariant — a full base, a resize (config change), an
// epoch bump, a file someone else touched — falls back to one atomic
// full rewrite, which re-establishes it.
//
// Fencing is preserved from the synchronous path: before touching a
// shared-store file on behalf of a fleet-managed job, the persister reads
// just the envelope header (21 bytes) and refuses the write if the
// incumbent carries a higher placement epoch, flagging the local copy to
// self-fence.

// ckptOp is one queued persistence action for a job's checkpoint file.
type ckptOp struct {
	j     *Job
	id    string
	cfg   JobConfig // captured under j.mu at enqueue time
	epoch int64     // captured under j.mu at enqueue time
	chain []byte    // the full restorable chain (rewrite path)
	tail  []byte    // the blob this op appended to the chain; nil forces a rewrite
	full  bool      // tail is a full base (starts a fresh file)
	done  chan struct{}
}

// ckptFile is the persister's belief about one job's on-disk file. dead
// marks a removed terminal file so late queued appends cannot resurrect
// it. The mutex orders the queue consumer against synchronous removals;
// nothing ever takes j.mu while holding it.
type ckptFile struct {
	mu     sync.Mutex
	dead   bool
	valid  bool // size/epoch/cfgCRC describe the file we last wrote
	size   int64
	epoch  int64
	cfgCRC uint32
}

type persister struct {
	s    *Scheduler
	ops  chan ckptOp
	done chan struct{}

	mu    sync.Mutex
	files map[string]*ckptFile
}

func newPersister(s *Scheduler) *persister {
	return &persister{
		s:     s,
		ops:   make(chan ckptOp, 64),
		done:  make(chan struct{}),
		files: make(map[string]*ckptFile),
	}
}

// file returns (creating if needed) the tracked state for a job's file.
func (p *persister) file(id string) *ckptFile {
	p.mu.Lock()
	defer p.mu.Unlock()
	f := p.files[id]
	if f == nil {
		f = &ckptFile{}
		p.files[id] = f
	}
	return f
}

// run consumes the queue until it is closed (drain: remaining ops are
// applied) or the scheduler is killed (simulated crash: pending ops are
// abandoned, like writes lost in a real process death).
func (p *persister) run() {
	defer close(p.done)
	for {
		select {
		case op, ok := <-p.ops:
			if !ok {
				return
			}
			p.apply(op)
		case <-p.s.kill:
			return
		}
	}
}

// readCkptEpoch reads a checkpoint file's placement epoch from its header
// alone — one 21-byte pread, never the payload.
func readCkptEpoch(path string) (int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	var hdr [jobCkptHeaderLen]byte
	n, err := io.ReadFull(f, hdr[:])
	if err != nil && err != io.ErrUnexpectedEOF {
		return 0, err
	}
	return jobCheckpointEpoch(hdr[:n])
}

// apply lands one op on disk.
func (p *persister) apply(op ckptOp) {
	if op.done != nil {
		defer close(op.done)
	}
	f := p.file(op.id)
	f.mu.Lock()
	if f.dead {
		f.mu.Unlock()
		return
	}
	path := filepath.Join(p.s.cfg.CheckpointDir, op.id+".ckpt")
	if op.epoch > 0 {
		if prevEpoch, err := readCkptEpoch(path); err == nil && prevEpoch > op.epoch {
			// Another worker adopted this job while we were partitioned:
			// the file is theirs now. Refuse the write and self-fence.
			f.valid = false
			f.mu.Unlock()
			p.s.metrics.checkpointsFenced.Add(1)
			op.j.mu.Lock()
			if op.j.state == StateRunning {
				p.s.fenceLocked(op.j, prevEpoch)
			}
			op.j.mu.Unlock()
			return
		}
	}
	cfgJSON, err := json.Marshal(op.cfg)
	if err != nil {
		f.valid = false
		f.mu.Unlock()
		p.s.metrics.checkpointFailures.Add(1)
		return
	}
	crc := crc32.Checksum(cfgJSON, jobCkptCRC)
	if op.tail != nil && !op.full && f.valid && f.epoch == op.epoch && f.cfgCRC == crc {
		if st, err := os.Stat(path); err == nil && st.Size() == f.size {
			if err := durable.AppendFileSync(path, op.tail); err == nil {
				f.size += int64(len(op.tail))
				f.mu.Unlock()
				p.s.metrics.checkpointAppends.Add(1)
				return
			}
			// A torn append leaves a broken chain tail; the NDCP record
			// CRCs make the prefix restorable, but our size belief is
			// gone — fall through to an atomic rewrite.
		}
		f.valid = false
	}
	env, err := encodeJobCheckpoint(op.cfg, op.epoch, op.chain)
	if err != nil {
		f.valid = false
		f.mu.Unlock()
		p.s.metrics.checkpointFailures.Add(1)
		return
	}
	if err := durable.WriteFileAtomic(path, env, 0o644); err != nil {
		f.valid = false
		f.mu.Unlock()
		p.s.metrics.checkpointFailures.Add(1)
		return
	}
	f.valid = true
	f.size = int64(len(env))
	f.epoch = op.epoch
	f.cfgCRC = crc
	f.mu.Unlock()
}

// remove synchronously deletes a terminal job's file (unless a
// higher-epoch owner holds it) and marks it dead so any op still queued
// for it becomes a no-op instead of resurrecting the file. Safe to call
// while holding j.mu: the queue consumer never holds a ckptFile lock
// while waiting on a job lock.
func (p *persister) remove(id string, epoch int64) {
	f := p.file(id)
	f.mu.Lock()
	defer f.mu.Unlock()
	path := filepath.Join(p.s.cfg.CheckpointDir, id+".ckpt")
	if epoch > 0 {
		if fileEpoch, err := readCkptEpoch(path); err == nil && fileEpoch > epoch {
			return
		}
	}
	os.Remove(path)
	f.dead = true
	f.valid = false
}

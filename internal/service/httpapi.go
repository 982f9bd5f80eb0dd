package service

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"

	"nestdiff/internal/core"
	"nestdiff/internal/serve"
)

// maxJobBody bounds POST /jobs request bodies.
const maxJobBody = 1 << 20

// maxImportBody bounds POST /jobs/{id}/import checkpoint bodies.
const maxImportBody = 1 << 30

// DefaultRetryAfterSeconds is the Retry-After hint sent with 429
// load-shedding responses — the worker's submit queue and the fleet
// admission path both use it unless configured otherwise.
const DefaultRetryAfterSeconds = 1

// NewHandler returns the nestserved JSON API over a scheduler:
//
//	POST /jobs               submit a job (JobConfig body) → 201 Snapshot
//	GET  /jobs               list all jobs → []Snapshot
//	GET  /jobs/{id}          one job's progress → Snapshot
//	POST /jobs/{id}/cancel   cancel (queued/paused: now; running: next step)
//	POST /jobs/{id}/pause    pause; running jobs checkpoint at the next step
//	POST /jobs/{id}/resume   re-enqueue a paused job from its checkpoint
//	POST /jobs/{id}/resize?procs=N  change the processor count: running jobs
//	                         checkpoint, resize the grid in place at the next
//	                         step boundary and resume; unstarted jobs just
//	                         build at the new size
//	GET  /jobs/{id}/events   adaptation events so far → []AdaptationEvent;
//	                         with Accept: text/event-stream, a live SSE
//	                         stream of the trace ring (Last-Event-ID resumes)
//	GET  /jobs/{id}/field    quantized tiles of the latest step-boundary
//	                         field snapshot (?var=&rect=x0,y0,w,h&step=N)
//	GET  /jobs/{id}/trace    buffered trace events of a traced job → Trace
//	GET  /jobs/{id}/timeline per-phase timing breakdown → Timeline
//	GET  /metrics            Prometheus text exposition format
//	GET  /healthz            liveness probe
//	GET  /readyz             readiness probe (503 once shutdown begins)
//
// Fleet and handoff surface (consumed by cmd/nestctl and by operators
// migrating jobs between workers):
//
//	GET  /statz                  worker stats for fleet aggregation → WorkerStats
//	GET  /jobs/{id}/checkpoint   export the job checkpoint envelope (config + pipeline state)
//	POST /jobs/{id}/import       register an exported envelope here as a paused job → 201
//	POST /fleet/jobs             submit under a controller-chosen ID ({"id","config","epoch"}) → 201
//	POST /fleet/adopt            adopt a dead worker's job from the shared checkpoint store
//	POST /fleet/fence            kill the local copy of a re-homed job ({"id","epoch"})
//
// Request bodies larger than maxJobBody are rejected with 413; malformed
// or unknown-field JSON with 400; unknown job IDs with 404; a full submit
// queue with 429 plus a Retry-After header.
func NewHandler(s *Scheduler) http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
		var cfg JobConfig
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxJobBody))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&cfg); err != nil {
			code := http.StatusBadRequest
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				code = http.StatusRequestEntityTooLarge
			}
			writeError(w, code, err)
			return
		}
		snap, err := s.Submit(cfg)
		if err != nil {
			writeError(w, statusFor(err), err)
			return
		}
		writeJSON(w, http.StatusCreated, snap)
	})

	mux.HandleFunc("GET /jobs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.List())
	})

	mux.HandleFunc("GET /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		snap, err := s.Get(r.PathValue("id"))
		if err != nil {
			writeError(w, statusFor(err), err)
			return
		}
		writeJSON(w, http.StatusOK, snap)
	})

	mux.HandleFunc("GET /jobs/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		// With `Accept: text/event-stream` this endpoint upgrades to a live
		// SSE stream of the job's trace ring: buffered events replay first,
		// then new ones arrive as the job steps. Last-Event-ID (or
		// ?last_event_id=) resumes without duplicates or gaps; a cursor the
		// ring has already evicted gets an explicit `gap` event.
		if serve.WantsSSE(r) {
			tr, err := s.jobObsTracer(r.PathValue("id"))
			if err != nil {
				writeError(w, statusFor(err), err)
				return
			}
			serve.ServeSSE(w, r, tr, serve.SSEOptions{})
			return
		}
		events, err := s.JobEvents(r.PathValue("id"))
		if err != nil {
			writeError(w, statusFor(err), err)
			return
		}
		writeJSON(w, http.StatusOK, events)
	})

	mux.HandleFunc("GET /jobs/{id}/field", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		body, err := s.ReadField(r.PathValue("id"), q.Get("var"), q.Get("rect"), q.Get("step"))
		if err != nil {
			writeError(w, statusFor(err), err)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Write(body)
	})

	mux.HandleFunc("GET /jobs/{id}/trace", func(w http.ResponseWriter, r *http.Request) {
		trace, err := s.JobTrace(r.PathValue("id"))
		if err != nil {
			writeError(w, statusFor(err), err)
			return
		}
		writeJSON(w, http.StatusOK, trace)
	})

	mux.HandleFunc("GET /jobs/{id}/timeline", func(w http.ResponseWriter, r *http.Request) {
		tl, err := s.JobTimeline(r.PathValue("id"))
		if err != nil {
			writeError(w, statusFor(err), err)
			return
		}
		writeJSON(w, http.StatusOK, tl)
	})

	for _, op := range []struct {
		verb string
		do   func(id string) error
	}{
		{"cancel", s.Cancel},
		{"pause", s.Pause},
		{"resume", s.Resume},
	} {
		op := op
		mux.HandleFunc("POST /jobs/{id}/"+op.verb, func(w http.ResponseWriter, r *http.Request) {
			id := r.PathValue("id")
			if err := op.do(id); err != nil {
				writeError(w, statusFor(err), err)
				return
			}
			snap, err := s.Get(id)
			if err != nil {
				writeError(w, statusFor(err), err)
				return
			}
			writeJSON(w, http.StatusOK, snap)
		})
	}

	mux.HandleFunc("POST /jobs/{id}/resize", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		procs, err := strconv.Atoi(r.URL.Query().Get("procs"))
		if err != nil || procs < 1 {
			writeError(w, http.StatusBadRequest, errors.New("service: resize needs ?procs=N with N >= 1"))
			return
		}
		if err := s.ResizeJob(id, procs); err != nil {
			writeError(w, statusFor(err), err)
			return
		}
		snap, err := s.Get(id)
		if err != nil {
			writeError(w, statusFor(err), err)
			return
		}
		writeJSON(w, http.StatusOK, snap)
	})

	mux.HandleFunc("GET /jobs/{id}/checkpoint", func(w http.ResponseWriter, r *http.Request) {
		env, err := s.ExportCheckpoint(r.PathValue("id"))
		if err != nil {
			writeError(w, statusFor(err), err)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Write(env)
	})

	mux.HandleFunc("POST /jobs/{id}/import", func(w http.ResponseWriter, r *http.Request) {
		data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxImportBody))
		if err != nil {
			code := http.StatusBadRequest
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				code = http.StatusRequestEntityTooLarge
			}
			writeError(w, code, err)
			return
		}
		cfg, epoch, state, err := decodeJobCheckpoint(data)
		if err != nil && !errors.Is(err, core.ErrDeltaChainBroken) {
			// A broken delta-chain tail is importable: the restore falls
			// back to the chain's intact prefix. Anything else is rejected.
			writeError(w, http.StatusBadRequest, err)
			return
		}
		// The controller sends the bumped placement epoch in a header when
		// migrating; a manual import keeps the envelope's own epoch.
		if hdr := r.Header.Get("X-Fleet-Epoch"); hdr != "" {
			e, perr := strconv.ParseInt(hdr, 10, 64)
			if perr != nil {
				writeError(w, http.StatusBadRequest, errors.New("service: bad X-Fleet-Epoch header"))
				return
			}
			if e > epoch {
				epoch = e
			}
		}
		snap, err := s.Import(r.PathValue("id"), epoch, cfg, state)
		if err != nil {
			writeError(w, statusFor(err), err)
			return
		}
		writeJSON(w, http.StatusCreated, snap)
	})

	// fleetJobBody is the controller-to-worker placement and adoption
	// message: the fleet-wide job ID, its placement epoch and the job
	// config.
	type fleetJobBody struct {
		ID     string    `json:"id"`
		Epoch  int64     `json:"epoch,omitempty"`
		Config JobConfig `json:"config"`
	}
	decodeFleetBody := func(w http.ResponseWriter, r *http.Request) (fleetJobBody, bool) {
		var body fleetJobBody
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxJobBody))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&body); err != nil {
			code := http.StatusBadRequest
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				code = http.StatusRequestEntityTooLarge
			}
			writeError(w, code, err)
			return body, false
		}
		if body.ID == "" {
			writeError(w, http.StatusBadRequest, errors.New("service: fleet job body needs an id"))
			return body, false
		}
		return body, true
	}

	mux.HandleFunc("POST /fleet/jobs", func(w http.ResponseWriter, r *http.Request) {
		body, ok := decodeFleetBody(w, r)
		if !ok {
			return
		}
		snap, err := s.SubmitWithID(body.ID, body.Epoch, body.Config)
		if err != nil {
			writeError(w, statusFor(err), err)
			return
		}
		writeJSON(w, http.StatusCreated, snap)
	})

	mux.HandleFunc("POST /fleet/adopt", func(w http.ResponseWriter, r *http.Request) {
		body, ok := decodeFleetBody(w, r)
		if !ok {
			return
		}
		snap, err := s.Adopt(body.ID, body.Epoch, body.Config)
		if err != nil {
			writeError(w, statusFor(err), err)
			return
		}
		writeJSON(w, http.StatusOK, snap)
	})

	mux.HandleFunc("POST /fleet/fence", func(w http.ResponseWriter, r *http.Request) {
		var body struct {
			ID    string `json:"id"`
			Epoch int64  `json:"epoch"`
		}
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxJobBody))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&body); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		if body.ID == "" {
			writeError(w, http.StatusBadRequest, errors.New("service: fence body needs an id"))
			return
		}
		if err := s.Fence(body.ID, body.Epoch); err != nil && !errors.Is(err, ErrNotFound) {
			// A missing job is a successful fence: there is no copy to kill.
			writeError(w, statusFor(err), err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "fenced"})
	})

	mux.HandleFunc("GET /statz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Stats())
	})

	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.Metrics().WritePrometheus(w)
	})

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		w.Write([]byte("ok\n"))
	})

	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if !s.Ready() {
			writeError(w, http.StatusServiceUnavailable, ErrShuttingDown)
			return
		}
		w.WriteHeader(http.StatusOK)
		w.Write([]byte("ready\n"))
	})

	return mux
}

// statusFor maps scheduler errors to HTTP status codes.
func statusFor(err error) int {
	switch {
	case errors.Is(err, ErrNotFound), errors.Is(err, serve.ErrNoSnapshot), errors.Is(err, errStaleStep):
		return http.StatusNotFound
	case errors.Is(err, ErrBadTransition), errors.Is(err, ErrJobExists):
		return http.StatusConflict
	case errors.Is(err, ErrShuttingDown):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests
	default:
		return http.StatusBadRequest
	}
}

// WriteRetryAfter sheds one request: 429 Too Many Requests with a
// Retry-After hint of the given number of seconds (minimum 1) and a JSON
// error body. The worker API uses it when the submit queue is full; the
// fleet controller reuses it verbatim for its own admission path, so a
// saturated fleet and a saturated worker speak the same protocol.
func WriteRetryAfter(w http.ResponseWriter, seconds int, err error) {
	if seconds < 1 {
		seconds = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(seconds))
	writeJSON(w, http.StatusTooManyRequests, map[string]string{"error": err.Error()})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	if code == http.StatusTooManyRequests {
		WriteRetryAfter(w, DefaultRetryAfterSeconds, err)
		return
	}
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

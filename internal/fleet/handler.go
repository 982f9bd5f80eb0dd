package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"nestdiff/internal/serve"
	"nestdiff/internal/service"
)

// maxControlBody bounds controller request bodies (registrations,
// heartbeats, job submissions).
const maxControlBody = 1 << 20

// Handler returns the nestctl control-plane API:
//
//	POST /fleet/register     worker joins ({"id","url"})
//	POST /fleet/heartbeat    worker liveness + job epochs ({"id","jobs"});
//	                         404 → re-register; reply carries the
//	                         controller instance and a fence list
//	POST /fleet/drain        migrate a worker's jobs away ({"id"})
//	POST /fleet/deregister   clean departure, no liveness wait ({"id"})
//	GET  /fleet/workers      membership, live and dead → []WorkerInfo
//	POST /jobs               admit + place a job (JobConfig body) → 201
//	GET  /jobs               the placement table → [{id,worker,state,adoptions}]
//	GET  /jobs/{id}          proxy to the owning worker → Snapshot
//	GET  /jobs/{id}/{rest...}  proxy events/trace/timeline/checkpoint/field
//	                         (SSE /events streams are relayed live, with
//	                         Accept and Last-Event-ID forwarded)
//	POST /jobs/{id}/{verb}   proxy pause/resume/cancel/resize → Snapshot
//	                         (resize carries ?procs=N through to the worker)
//	GET  /statz              aggregated fleet stats → FleetStats
//	GET  /metrics            Prometheus text format, nestctl_ prefixed
//	GET  /healthz            controller liveness
//	GET  /readyz             503 until at least one worker is live
//
// Saturation (controller MaxPending exceeded, or the owning worker's
// submit queue full) sheds with 429 + Retry-After. Placement responses
// carry the owning worker in an X-Fleet-Worker header.
func (c *Controller) Handler() http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("POST /fleet/register", func(w http.ResponseWriter, r *http.Request) {
		var hello struct {
			ID  string `json:"id"`
			URL string `json:"url"`
		}
		if !decodeBody(w, r, &hello) {
			return
		}
		if hello.ID == "" || hello.URL == "" {
			httpError(w, http.StatusBadRequest, errors.New("fleet: registration needs id and url"))
			return
		}
		if c.reg.upsert(hello.ID, hello.URL, time.Now()) {
			c.journal(walRecord{Op: walOpRegister, Worker: hello.ID, URL: hello.URL})
		}
		writeJSON(w, http.StatusOK, map[string]string{
			"status":   "registered",
			"instance": c.instance,
		})
	})

	mux.HandleFunc("POST /fleet/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		var beat struct {
			ID   string                   `json:"id"`
			Jobs []service.JobEpochReport `json:"jobs"`
		}
		if !decodeBody(w, r, &beat) {
			return
		}
		if !c.reg.heartbeat(beat.ID, time.Now()) {
			httpError(w, http.StatusNotFound, fmt.Errorf("fleet: unknown worker %q", beat.ID))
			return
		}
		writeJSON(w, http.StatusOK, struct {
			Status   string                   `json:"status"`
			Instance string                   `json:"instance"`
			Fenced   []service.JobEpochReport `json:"fenced,omitempty"`
		}{"ok", c.instance, c.fenceList(beat.ID, beat.Jobs)})
	})

	mux.HandleFunc("POST /fleet/drain", func(w http.ResponseWriter, r *http.Request) {
		var body struct {
			ID string `json:"id"`
		}
		if !decodeBody(w, r, &body) {
			return
		}
		moved, err := c.Drain(body.ID)
		if err != nil {
			httpError(w, http.StatusNotFound, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"status": "draining", "moved": moved})
	})

	mux.HandleFunc("POST /fleet/deregister", func(w http.ResponseWriter, r *http.Request) {
		var body struct {
			ID string `json:"id"`
		}
		if !decodeBody(w, r, &body) {
			return
		}
		if !c.Deregister(body.ID) {
			httpError(w, http.StatusNotFound, fmt.Errorf("fleet: unknown worker %q", body.ID))
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "deregistered"})
	})

	mux.HandleFunc("GET /fleet/workers", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, c.reg.all())
	})

	mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
		var cfg service.JobConfig
		if !decodeBody(w, r, &cfg) {
			return
		}
		if c.cfg.MaxPending > 0 && c.activePlacements() >= c.cfg.MaxPending {
			c.metrics.rejectedSaturated.Add(1)
			service.WriteRetryAfter(w, c.cfg.RetryAfterSeconds,
				fmt.Errorf("fleet: %d jobs pending, at MaxPending", c.cfg.MaxPending))
			return
		}
		snap, target, err := c.place(cfg)
		if err != nil {
			if errors.Is(err, errWorkerSaturated) {
				c.metrics.rejectedSaturated.Add(1)
				service.WriteRetryAfter(w, c.cfg.RetryAfterSeconds, err)
				return
			}
			httpError(w, placeStatus(err), err)
			return
		}
		w.Header().Set("X-Fleet-Worker", target.ID)
		writeJSON(w, http.StatusCreated, snap)
	})

	mux.HandleFunc("GET /jobs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, c.Placements())
	})

	mux.HandleFunc("GET /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		c.proxyJob(w, r, r.PathValue("id"), "")
	})

	mux.HandleFunc("GET /jobs/{id}/{rest...}", func(w http.ResponseWriter, r *http.Request) {
		c.proxyJob(w, r, r.PathValue("id"), "/"+r.PathValue("rest"))
	})

	mux.HandleFunc("POST /jobs/{id}/{verb}", func(w http.ResponseWriter, r *http.Request) {
		switch verb := r.PathValue("verb"); verb {
		case "pause", "resume", "cancel", "resize":
			c.proxyJob(w, r, r.PathValue("id"), "/"+verb)
		default:
			httpError(w, http.StatusNotFound, fmt.Errorf("fleet: unknown job verb %q", verb))
		}
	})

	mux.HandleFunc("GET /statz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, c.Stats())
	})

	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		c.WritePrometheus(w)
	})

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		w.Write([]byte("ok\n"))
	})

	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if len(c.reg.live()) == 0 {
			httpError(w, http.StatusServiceUnavailable, errNoWorkers)
			return
		}
		w.WriteHeader(http.StatusOK)
		w.Write([]byte("ready\n"))
	})

	return mux
}

// proxyJob forwards a job API call to the job's owning worker, relaying
// status, Content-Type and Retry-After, and folds a snapshot reply's
// state back into the placement table.
func (c *Controller) proxyJob(w http.ResponseWriter, r *http.Request, id, sub string) {
	p, worker, err := c.lookupPlacement(id)
	if err != nil {
		code := http.StatusNotFound
		if errors.Is(err, errWorkerUnreachable) {
			code = http.StatusBadGateway
		}
		httpError(w, code, err)
		return
	}
	target := worker.URL + "/jobs/" + id + sub
	if q := r.URL.RawQuery; q != "" {
		target += "?" + q // resize carries ?procs=N
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, target, nil)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	// The read path negotiates content through headers: Accept selects the
	// SSE upgrade on /events, Last-Event-ID resumes a dropped stream.
	for _, h := range []string{"Accept", "Last-Event-ID"} {
		if v := r.Header.Get(h); v != "" {
			req.Header.Set(h, v)
		}
	}
	client := c.client
	wantsStream := sub == "/events" && serve.WantsSSE(r)
	if wantsStream {
		// A live stream must outlive the control-call timeout.
		client = c.stream
	}
	resp, err := client.Do(req)
	if err != nil {
		c.metrics.proxyErrors.Add(1)
		httpError(w, http.StatusBadGateway, fmt.Errorf("%w: %v", errWorkerUnreachable, err))
		return
	}
	defer resp.Body.Close()
	if wantsStream && resp.StatusCode == http.StatusOK &&
		strings.HasPrefix(resp.Header.Get("Content-Type"), "text/event-stream") {
		c.streamProxy(w, resp, worker.ID)
		return
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		c.metrics.proxyErrors.Add(1)
		httpError(w, http.StatusBadGateway, err)
		return
	}
	if resp.StatusCode/100 == 2 && (sub == "" || sub == "/pause" || sub == "/resume" || sub == "/cancel" || sub == "/resize") {
		var snap service.Snapshot
		if json.Unmarshal(body, &snap) == nil && snap.ID == id {
			c.foldState(p, snap.State)
			c.reconcileCores(p, snap.Cores)
		}
	}
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	w.Header().Set("X-Fleet-Worker", worker.ID)
	w.WriteHeader(resp.StatusCode)
	w.Write(body)
}

// streamProxy relays a worker's SSE stream to the client frame by frame,
// flushing after every chunk so live events are never buffered at the
// controller. It returns when either side closes.
func (c *Controller) streamProxy(w http.ResponseWriter, resp *http.Response, workerID string) {
	for _, h := range []string{"Content-Type", "Cache-Control", "X-Accel-Buffering"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.Header().Set("X-Fleet-Worker", workerID)
	http.NewResponseController(w).SetWriteDeadline(time.Time{})
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	if flusher != nil {
		flusher.Flush()
	}
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
		if err != nil {
			return
		}
	}
}

// placeStatus maps placement errors to HTTP status codes (saturation is
// handled separately so it can carry Retry-After).
func placeStatus(err error) int {
	switch {
	case errors.Is(err, errNoWorkers):
		return http.StatusServiceUnavailable
	case errors.Is(err, errWorkerUnreachable):
		return http.StatusBadGateway
	default:
		return http.StatusBadGateway
	}
}

// decodeBody decodes a bounded, strict JSON body; false means a response
// was already written.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxControlBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		httpError(w, code, err)
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func httpError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// Command nestserved is the resident simulation service: it schedules
// many concurrent nest-tracking pipelines on a bounded worker pool and
// exposes a JSON job API plus Prometheus metrics over HTTP.
//
// Usage:
//
//	nestserved -addr :8080 -workers 8
//
// Submit a job, poll it, pause/resume it, scrape metrics:
//
//	curl -X POST localhost:8080/jobs -d '{"cores":1024,"strategy":"diffusion","scenario":"monsoon","steps":300}'
//	curl localhost:8080/jobs/job-1
//	curl -X POST localhost:8080/jobs/job-1/pause
//	curl -X POST localhost:8080/jobs/job-1/resume
//	curl localhost:8080/jobs/job-1/events
//	curl -H 'Accept: text/event-stream' localhost:8080/jobs/job-1/events   # live SSE stream
//	curl 'localhost:8080/jobs/job-1/field?var=qcloud&rect=0,0,64,64' -o tiles.bin   # quantized field read
//	curl localhost:8080/jobs/job-1/trace      # structured trace ("trace": true jobs)
//	curl localhost:8080/jobs/job-1/timeline   # per-phase timing breakdown
//	curl localhost:8080/metrics
//	curl localhost:8080/healthz   # liveness
//	curl localhost:8080/readyz    # readiness (503 once draining)
//
// With -pprof ADDR, net/http/pprof is served on its own listener and mux,
// never on the public API listener. With -ledger-dir DIR, traced jobs
// additionally write an append-only JSONL event ledger to
// DIR/<jobID>.jsonl, summarizable offline with nesttrace.
//
// With -controller URL the daemon joins a nestctl fleet: it registers
// under -worker-id at -advertise and heartbeats every -heartbeat. Fleet
// workers share a -checkpoint-dir, so checkpoint recovery at startup is
// left to the controller's adoption path (a fleet worker must not
// re-register its dead peers' checkpoints as its own jobs).
//
// On SIGINT/SIGTERM the daemon drains gracefully: running jobs checkpoint
// at their next step boundary and park as paused before the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"nestdiff/internal/service"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("nestserved: ")
	var (
		addr      = flag.String("addr", ":8080", "HTTP listen address")
		workers   = flag.Int("workers", runtime.GOMAXPROCS(0), "worker-pool size (jobs simulating concurrently; default: all CPUs)")
		queue     = flag.Int("queue", 256, "submit queue depth")
		drainFor  = flag.Duration("drain-timeout", 30*time.Second, "max time to wait for running jobs to checkpoint on shutdown")
		ckptDir   = flag.String("checkpoint-dir", "", "directory for on-disk job checkpoint mirrors (empty: in-memory only)")
		ledgerDir = flag.String("ledger-dir", "", "directory for traced jobs' JSONL event ledgers (empty: in-memory trace ring only)")
		pprofAddr = flag.String("pprof", "", "serve net/http/pprof on this separate address (empty: disabled; never on the public listener)")

		tileCache = flag.Int64("tile-cache-bytes", 64<<20, "byte budget of the quantized tile cache serving GET /jobs/{id}/field")

		controller = flag.String("controller", "", "nestctl base URL to join as a fleet worker (empty: standalone)")
		workerID   = flag.String("worker-id", "", "fleet-wide worker ID (required with -controller)")
		advertise  = flag.String("advertise", "", "base URL the controller reaches this worker on (required with -controller)")
		heartbeat  = flag.Duration("heartbeat", 2*time.Second, "fleet heartbeat interval")
	)
	flag.Parse()
	for _, d := range [][2]string{{"checkpoint-dir", *ckptDir}, {"ledger-dir", *ledgerDir}} {
		if err := ensureDir(d[0], d[1]); err != nil {
			log.Fatal(err)
		}
	}

	effWorkers := *workers
	if effWorkers <= 0 {
		effWorkers = runtime.GOMAXPROCS(0)
	}
	sched := service.NewScheduler(service.SchedulerConfig{
		Workers: effWorkers, QueueDepth: *queue, CheckpointDir: *ckptDir, LedgerDir: *ledgerDir,
		// In a fleet the checkpoint dir is shared; recovery of orphaned
		// checkpoints is the controller's adoption decision, not ours.
		DisableRecovery: *controller != "",
		TileCacheBytes:  *tileCache,
	})
	// Listen before joining the fleet: the controller may proxy a job to the
	// advertised address the moment it has the registration.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	var agent *service.Agent
	if *controller != "" {
		agent, err = service.StartAgent(service.AgentConfig{
			ControllerURL:     *controller,
			WorkerID:          *workerID,
			AdvertiseURL:      *advertise,
			HeartbeatInterval: *heartbeat,
			Sched:             sched,
		})
		if err != nil {
			log.Fatal(err)
		}
		defer agent.Stop()
		log.Printf("joined fleet at %s as %s (advertising %s)", *controller, *workerID, *advertise)
	}
	if *pprofAddr != "" {
		// pprof gets a dedicated mux on a dedicated listener so profiling
		// endpoints are never reachable through the public API address.
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			log.Printf("pprof listening on %s", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, pmux); err != nil {
				log.Printf("pprof listener: %v", err)
			}
		}()
	}
	srv := &http.Server{
		Handler: service.NewHandler(sched),
		// A stalled or malicious client must not pin a connection (or a
		// handler goroutine) forever.
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       15 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		log.Printf("listening on %s with %d workers", ln.Addr(), effWorkers)
		errc <- srv.Serve(ln)
	}()

	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
	}

	log.Printf("shutting down: draining jobs (up to %s)", *drainFor)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainFor)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	if err := sched.Shutdown(drainCtx); err != nil {
		log.Printf("scheduler drain: %v", err)
	} else {
		log.Printf("drained cleanly")
	}
	if agent != nil {
		// Jobs are parked and their checkpoints persisted to the shared
		// store; telling the controller we left on purpose lets survivors
		// adopt them on the next sweep instead of waiting out the liveness
		// deadline wondering whether we crashed.
		agent.Deregister()
		log.Printf("deregistered from fleet")
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
}

// ensureDir creates the directory a flag names (and its parents) when the
// flag is set: the checkpoint persister and the ledgers write inside them
// and would otherwise fail silently on a fresh host.
func ensureDir(flagName, dir string) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("-%s %s: %w", flagName, dir, err)
	}
	return nil
}

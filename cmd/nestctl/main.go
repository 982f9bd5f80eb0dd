// Command nestctl is the fleet control plane: it shards nest-tracking
// jobs across a fleet of nestserved workers, tracks their liveness, and
// re-homes the jobs of a dead worker onto survivors from the shared
// checkpoint store.
//
// Usage:
//
//	nestctl -addr :9090 -liveness-deadline 6s
//
// Workers join with nestserved's fleet flags (all sharing one
// -checkpoint-dir so survivors can adopt a dead peer's checkpoints):
//
//	nestserved -addr :8081 -controller http://localhost:9090 \
//	    -worker-id w1 -advertise http://localhost:8081 -checkpoint-dir /srv/ckpt
//
// Clients then talk to the controller exactly as they would to a single
// worker — POST /jobs, GET /jobs/{id}, pause/resume/cancel — and nestctl
// routes each call to the owning worker. GET /metrics serves the
// aggregated fleet view; when the fleet is saturated, submissions are
// shed with 429 + Retry-After.
//
// On SIGINT/SIGTERM the controller stops sweeping and exits; workers keep
// running their jobs and re-register when a controller returns.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"nestdiff/internal/elastic"
	"nestdiff/internal/fleet"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("nestctl: ")
	var (
		addr       = flag.String("addr", ":9090", "HTTP listen address")
		liveness   = flag.Duration("liveness-deadline", 6*time.Second, "declare a worker dead after this much heartbeat silence")
		sweep      = flag.Duration("sweep", time.Second, "liveness/adoption sweep interval")
		maxPending = flag.Int("max-pending", 0, "shed submissions with 429 beyond this many non-terminal jobs fleet-wide (0: workers' queue limits only)")
		retryAfter = flag.Int("retry-after", 0, "Retry-After seconds on shed submissions (0: default)")
		replicas   = flag.Int("replicas", 0, "consistent-hash vnodes per worker (0: default)")
		stateDir   = flag.String("state-dir", "", "directory for the durable placement WAL; a restarted controller replays it and resumes with the same placement table (empty: in-memory only)")

		procBudget   = flag.Int("proc-budget", 0, "fleet-wide processor budget for the autoscaler: hot jobs grow and idle jobs shrink against it (0: autoscaler off)")
		autoInterval = flag.Duration("autoscale-interval", 0, "autoscaler decision-loop period (0: default 2s)")
		autoCooldown = flag.Duration("autoscale-cooldown", 0, "per-job minimum spacing between autoscaler resizes (0: default 30s)")
	)
	flag.Parse()
	if err := ensureDir("state-dir", *stateDir); err != nil {
		log.Fatal(err)
	}

	ctl := fleet.NewController(fleet.Config{
		LivenessDeadline:  *liveness,
		SweepInterval:     *sweep,
		MaxPending:        *maxPending,
		RetryAfterSeconds: *retryAfter,
		Replicas:          *replicas,
		StateDir:          *stateDir,
	})
	defer ctl.Close()

	if *procBudget > 0 {
		if err := ctl.EnableAutoscaler(elastic.AutoscalerConfig{
			Budget:   *procBudget,
			Interval: *autoInterval,
			Cooldown: *autoCooldown,
		}); err != nil {
			log.Fatalf("autoscaler: %v", err)
		}
		log.Printf("autoscaler on: %d-processor fleet budget", *procBudget)
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           ctl.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       15 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		log.Printf("control plane listening on %s (liveness deadline %s)", *addr, *liveness)
		errc <- srv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
	}

	log.Printf("shutting down")
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
}

// ensureDir creates the directory a flag names (and its parents) when the
// flag is set: the placement WAL is opened inside it and would otherwise
// fail silently on a fresh host.
func ensureDir(flagName, dir string) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("-%s %s: %w", flagName, dir, err)
	}
	return nil
}

package fleet

import (
	"context"
	"fmt"
	"io"
	"net/http"

	"nestdiff/internal/elastic"
	"nestdiff/internal/service"
)

// autoscaleTarget adapts the controller to elastic.Target: the load view
// comes from the placement table joined with the owning workers' job
// snapshots, and the resize verb goes through the same worker endpoint an
// operator would hit — so autoscaler decisions and manual resizes are
// indistinguishable to the worker, the epochs and the WAL.
type autoscaleTarget struct{ c *Controller }

// Jobs returns one JobLoad per live, non-terminal placement whose owner
// answered. One GET /jobs per owning worker, not per job.
func (t autoscaleTarget) Jobs() ([]elastic.JobLoad, error) {
	c := t.c
	c.mu.Lock()
	byWorker := make(map[string][]*placement)
	for _, id := range c.order {
		p := c.placements[id]
		if p.State.Terminal() {
			continue
		}
		byWorker[p.WorkerID] = append(byWorker[p.WorkerID], p)
	}
	c.mu.Unlock()

	var out []elastic.JobLoad
	for workerID, ps := range byWorker {
		w, ok := c.reg.get(workerID)
		if !ok || !w.Live || c.linkDown(workerID) {
			continue
		}
		var snaps []service.Snapshot
		if _, err := c.call(http.MethodGet, w.URL+"/jobs", nil, 0, &snaps); err != nil {
			continue
		}
		idx := make(map[string]service.Snapshot, len(snaps))
		for _, sn := range snaps {
			idx[sn.ID] = sn
		}
		for _, p := range ps {
			sn, ok := idx[p.ID]
			if !ok {
				continue
			}
			c.mu.Lock()
			nx, ny := p.cfg.NX, p.cfg.NY
			c.mu.Unlock()
			load := elastic.JobLoad{
				ID:          p.ID,
				State:       string(sn.State),
				Cores:       sn.Cores,
				ActiveNests: len(sn.ActiveNests),
				NX:          nx,
				NY:          ny,
				StepsLeft:   sn.TotalSteps - sn.Step,
			}
			if sn.LastEvent != nil {
				load.StepSeconds = sn.LastEvent.Metrics.ExecTime
			}
			out = append(out, load)
		}
	}
	return out, nil
}

// Resize posts the resize to the owning worker. The worker applies it at
// its next step boundary; the new core count flows back into the
// placement config through reconcileCores on a later state refresh.
func (t autoscaleTarget) Resize(id string, procs int) error {
	c := t.c
	_, w, err := c.lookupPlacement(id)
	if err != nil {
		return err
	}
	if c.linkDown(w.ID) {
		return fmt.Errorf("%w: link partitioned", errWorkerUnreachable)
	}
	url := fmt.Sprintf("%s/jobs/%s/resize?procs=%d", w.URL, id, procs)
	resp, err := c.client.Post(url, "application/json", nil)
	if err != nil {
		return fmt.Errorf("%w: %v", errWorkerUnreachable, err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("fleet: worker %s rejected resize of %s with status %d", w.ID, id, resp.StatusCode)
	}
	c.metrics.autoscaleResizes.Add(1)
	return nil
}

// EnableAutoscaler attaches a fleet autoscaler to this controller: a
// background loop that grows hot jobs and shrinks idle ones against
// cfg.Budget, driving the same per-job resize path operators use. Call
// before serving traffic; Close stops the loop. With cfg.Budget <= 0 the
// loop is a no-op and nothing is started.
func (c *Controller) EnableAutoscaler(cfg elastic.AutoscalerConfig) error {
	if cfg.Budget <= 0 {
		return nil
	}
	as, err := elastic.NewAutoscaler(autoscaleTarget{c}, cfg, c.metrics.autoscale)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	c.autoCancel = cancel
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		as.Run(ctx)
	}()
	return nil
}

var _ elastic.Target = autoscaleTarget{}

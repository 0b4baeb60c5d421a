package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"github.com/p2prepro/locaware"
	"github.com/p2prepro/locaware/internal/core"
	"github.com/p2prepro/locaware/internal/obs"
)

// batch is one execution of a workload's fixed-size job.
type batch struct {
	wall     float64 // s, what the user waits for, set-up included
	simWall  float64 // s, simulated-phase wall time
	queries  int     // warmup + measured, over every simulation
	mallocs  uint64  // across the simulated phase
	cellDone []float64
	digest   string
	detail   []string

	attempted, failed int
	failures          []string

	checkpointBytes int64
	runs            []*core.RunResult // direct workloads, for the traced counts
}

func (b *batch) fail(format string, args ...any) {
	b.failed++
	b.failures = append(b.failures, fmt.Sprintf(format, args...))
}

// checkRun applies the per-simulation output checks: no error, and the
// measured count the collector saw equals the one requested. With a
// runtime snapshot (traced runs) it also checks conservation: submitted,
// finalised and warmup+measured are all equal.
func checkRun(b *batch, j simJob, r *core.RunResult) {
	b.attempted++
	switch {
	case r == nil:
		b.fail("%s: no result", j.label)
	case r.Err != nil:
		b.fail("%s: %v", j.label, r.Err)
	case r.Collector.Submitted() != j.measured:
		b.fail("%s: %d measured queries, want %d", j.label, r.Collector.Submitted(), j.measured)
	case r.Runtime != nil && (r.Runtime.Submitted != uint64(j.warmup+j.measured) ||
		r.Runtime.Finalized != r.Runtime.Submitted):
		b.fail("%s: submitted %d, finalized %d, want %d", j.label,
			r.Runtime.Submitted, r.Runtime.Finalized, j.warmup+j.measured)
	case !(r.Collector.SuccessRate() >= 0 && r.Collector.SuccessRate() <= 1) ||
		math.IsNaN(r.Collector.AvgMessagesPerQuery()):
		b.fail("%s: success rate %v, msgs/query %v out of range", j.label,
			r.Collector.SuccessRate(), r.Collector.AvgMessagesPerQuery())
	}
}

// runDirect runs a direct workload's simulations one after another through
// core.NewSimulation and RunMeasured. A non-nil tracer instruments every
// simulation.
func runDirect(w *workload, tr *tracer) *batch {
	b := &batch{}
	runtime.GC()
	start := time.Now()
	for _, j := range w.jobs {
		cfg := j.cfg
		if tr != nil {
			cfg.Obs = obs.NewRegistry()
		}
		s := core.NewSimulation(cfg, j.behavior)
		var clock *kindClock
		if tr != nil {
			clock = newKindClock()
			s.Engine.SetObserver(clock.observe)
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t2 := time.Now()
		r := s.RunMeasured(j.warmup, j.measured)
		t3 := time.Now()
		runtime.ReadMemStats(&m1)
		b.simWall += t3.Sub(t2).Seconds()
		b.mallocs += m1.Mallocs - m0.Mallocs
		b.queries += j.warmup + j.measured
		b.cellDone = append(b.cellDone, time.Since(start).Seconds())
		if tr != nil {
			tr.addRun(clock, t3.Sub(t2))
		}
		checkRun(b, j, r)
		b.runs = append(b.runs, r)
	}
	b.wall = time.Since(start).Seconds()
	b.digest, b.detail = runDigest(w, b.runs)
	return b
}

// runCampaign runs the churn-campaign batch: one in-process checkpointed
// sweep on a fresh checkpoint directory under work. Cell completion times
// come from the checkpoint files, which the campaign writes as each cell
// finishes.
func runCampaign(w *workload, work string, n int) *batch {
	b := &batch{}
	c := w.camp
	dir := filepath.Join(work, fmt.Sprintf("ckpt-%d-%d", os.Getpid(), n))
	if err := os.RemoveAll(dir); err != nil {
		b.attempted = w.cells
		b.fail("clearing checkpoint dir: %v", err)
		return b
	}
	defer os.RemoveAll(dir)
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	res, stats, err := locaware.RunSweepCheckpointed(c.opts, c.sweep, locaware.CampaignOptions{Checkpoint: dir})
	b.wall = time.Since(start).Seconds()
	runtime.ReadMemStats(&m1)
	b.simWall = b.wall
	b.mallocs = m1.Mallocs - m0.Mallocs
	b.queries = w.queries()
	b.attempted = w.cells
	if err != nil {
		b.failed = w.cells
		b.failures = append(b.failures, fmt.Sprintf("campaign: %v", err))
		return b
	}
	if stats.Executed != w.cells || len(stats.Warnings) > 0 || res.NumCells() != w.cells ||
		res.Runs() != len(w.jobs) {
		b.fail("campaign: executed %d/%d cells, %d runs, warnings %v",
			stats.Executed, w.cells, res.Runs(), stats.Warnings)
	}
	for cell := 0; cell < w.cells; cell++ {
		for _, p := range c.protos {
			est, err := res.CellEstimate(cell, locaware.Protocol(p), "success")
			if err != nil || est.N != c.trials || est.Mean < 0 || est.Mean > 1 {
				b.fail("cell %d %s: success estimate %+v (%v), want %d trials", cell, p, est, err, c.trials)
			}
		}
	}
	b.cellDone, b.checkpointBytes = checkpointTimes(dir, start)
	if len(b.cellDone) != w.cells {
		b.fail("campaign wrote %d checkpoint files, want %d", len(b.cellDone), w.cells)
	}
	b.digest, b.detail = csvDigest(res.CSV())
	return b
}

// checkpointTimes returns the checkpoint files' modification times as
// offsets from start, ascending, and their total size.
func checkpointTimes(dir string, start time.Time) ([]float64, int64) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, 0
	}
	var done []float64
	var bytes int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil || !info.Mode().IsRegular() {
			continue
		}
		done = append(done, info.ModTime().Sub(start).Seconds())
		bytes += info.Size()
	}
	sort.Float64s(done)
	return done, bytes
}

// setupOnce builds every world the workload runs, timing core.NewSimulation
// alone, and discards them. It returns the summed build time.
func setupOnce(w *workload) float64 {
	runtime.GC()
	total := 0.0
	for _, j := range w.jobs {
		t0 := time.Now()
		s := core.NewSimulation(j.cfg, j.behavior)
		total += time.Since(t0).Seconds()
		runtime.KeepAlive(s)
	}
	return total
}

package main

import (
	"runtime"
	"slices"
	"time"

	"github.com/p2prepro/locaware/internal/core"
	"github.com/p2prepro/locaware/internal/exper"
	"github.com/p2prepro/locaware/internal/netmodel"
	"github.com/p2prepro/locaware/internal/obs"
	"github.com/p2prepro/locaware/internal/overlay"
	"github.com/p2prepro/locaware/internal/protocol"
	"github.com/p2prepro/locaware/internal/sim"
	"github.com/p2prepro/locaware/internal/sweep"
	wk "github.com/p2prepro/locaware/internal/workload"
)

// kinds are the event kinds whose delivery intervals the traced run
// attributes, by their EventName, with the metric prefix each reports
// under. Intervals of any other kind (collector-reset) and the time
// outside every interval form the unattributed remainder.
var kinds = []struct{ event, metric string }{
	{"query-deliver", "protocol.query_deliver"},
	{"response-deliver", "protocol.response_deliver"},
	{"query-finalize", "protocol.query_finalize"},
	{"query-submit", "protocol.query_submit"},
	{"gossip-round", "bloom.gossip_round"},
	{"bloom-install", "bloom.install"},
	{"churn-tick", "scenario.churn_tick"},
}

func kindIndex(name string) int {
	for i, k := range kinds {
		if k.event == name {
			return i
		}
	}
	return -1
}

// kindClock is one simulation's sim.Engine observer. Each delivery closes
// the interval opened by the previous one and charges it to the previous
// event's kind, so an interval covers that event's handler plus the queue
// pop of the next event.
type kindClock struct {
	base     time.Time
	lastKind int // -1 before the first delivery and for unnamed kinds
	lastAt   int64
	counts   []uint64
	ivals    [][]int32 // ns, per kind
}

func newKindClock() *kindClock {
	return &kindClock{base: time.Now(), lastKind: -1, counts: make([]uint64, len(kinds)), ivals: make([][]int32, len(kinds))}
}

func (k *kindClock) observe(_ sim.Time, ev sim.Event) {
	now := int64(time.Since(k.base))
	if k.lastKind >= 0 {
		d := now - k.lastAt
		if d > 1<<31-1 {
			d = 1<<31 - 1
		}
		k.ivals[k.lastKind] = append(k.ivals[k.lastKind], int32(d))
	}
	k.lastKind = -1
	if n, ok := ev.(sim.Named); ok {
		k.lastKind = kindIndex(n.EventName())
	}
	if k.lastKind >= 0 {
		k.counts[k.lastKind]++
	}
	k.lastAt = now
}

// buildTimes are the world-construction stages of core.NewSimulation,
// in its order.
type buildTimes struct {
	place, model, locator, overlay, catalog, placement, network float64 // s
}

// tracer accumulates one traced batch's per-layer measurements.
type tracer struct {
	runWall time.Duration
	counts  []uint64
	ivals   [][]int32

	build     buildTimes
	worldHeap float64 // MB, largest world
	rttCold   float64 // ns per Model.RTT call, summed over probes
	rttWarm   float64
	rttProbes int
}

func newTracer() *tracer {
	return &tracer{counts: make([]uint64, len(kinds)), ivals: make([][]int32, len(kinds))}
}

// addRun folds one simulation's observer intervals and its RunMeasured
// wall time into the batch totals.
func (t *tracer) addRun(k *kindClock, wall time.Duration) {
	t.runWall += wall
	for i := range kinds {
		t.counts[i] += k.counts[i]
		t.ivals[i] = append(t.ivals[i], k.ivals[i]...)
	}
}

// prepass rebuilds every job's world stage by stage, calling the
// constructors core.NewSimulation calls, in its order and on the same named
// RNG streams, and discards it. It records the stage times, the heap the
// world retains, and Model.RTT cost over the overlay's edges on a fresh
// model: a first (cold) pass seeds the jitter memo, a second (warm) pass
// reads it.
func (t *tracer) prepass(w *workload) {
	for _, j := range w.jobs {
		cfg := j.cfg
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)

		rng := sim.NewRNG(cfg.Seed)
		t0 := time.Now()
		pts := netmodel.Place(cfg.NumPeers, cfg.Placement, rng.Stream("topology"))
		t1 := time.Now()
		model := netmodel.NewModel(pts, cfg.Placement.Side, cfg.Latency, cfg.Seed)
		t2 := time.Now()
		lm := netmodel.NewLandmarks(cfg.Landmarks, cfg.Placement.Side, rng.Stream("landmarks"))
		locator := netmodel.NewLocator(model, lm)
		t3 := time.Now()
		graph := overlay.BuildRandom(cfg.NumPeers,
			overlay.BuildConfig{AvgDegree: cfg.AvgDegree, MaxDegree: cfg.MaxDegree}, rng.Stream("overlay"))
		t4 := time.Now()
		catalog := wk.NewCatalog(cfg.Catalog, rng.Stream("catalog"))
		t5 := time.Now()
		placement := wk.NewPlacement(cfg.NumPeers, cfg.FilesPerPeer, catalog, rng.Stream("placement"))
		t6 := time.Now()
		net := protocol.NewNetwork(sim.NewEngine(), graph, model, locator, j.behavior, cfg.Protocol,
			rng.Stream("gid"), rng.Stream("protocol"))
		for p := 0; p < cfg.NumPeers; p++ {
			for _, fid := range placement.Files(p) {
				net.Node(overlay.PeerID(p)).AddFile(catalog.File(fid))
			}
		}
		t7 := time.Now()

		runtime.GC()
		runtime.ReadMemStats(&m1)
		runtime.KeepAlive(net)
		if mb := (float64(m1.HeapAlloc) - float64(m0.HeapAlloc)) / (1 << 20); mb > t.worldHeap {
			t.worldHeap = mb
		}
		t.build.place += t1.Sub(t0).Seconds()
		t.build.model += t2.Sub(t1).Seconds()
		t.build.locator += t3.Sub(t2).Seconds()
		t.build.overlay += t4.Sub(t3).Seconds()
		t.build.catalog += t5.Sub(t4).Seconds()
		t.build.placement += t6.Sub(t5).Seconds()
		t.build.network += t7.Sub(t6).Seconds()

		cold, warm := rttProbe(pts, cfg, graph)
		t.rttCold += cold
		t.rttWarm += warm
		t.rttProbes++
	}
}

// rttSink keeps the probed RTT values live.
var rttSink float64

// maxRTTEdges caps the probed edges, so the probe stays short on large
// overlays.
const maxRTTEdges = 20000

// rttProbe returns the mean ns per Model.RTT call over the overlay's edges
// (up to maxRTTEdges, in peer order) on a fresh model: first pass, then
// second pass.
func rttProbe(pts []netmodel.Point, cfg core.Config, g *overlay.Graph) (cold, warm float64) {
	var edges [][2]int
	for a := 0; a < g.N() && len(edges) < maxRTTEdges; a++ {
		for _, b := range g.Neighbors(overlay.PeerID(a)) {
			if int(b) > a && len(edges) < maxRTTEdges {
				edges = append(edges, [2]int{a, int(b)})
			}
		}
	}
	if len(edges) == 0 {
		return 0, 0
	}
	model := netmodel.NewModel(pts, cfg.Placement.Side, cfg.Latency, cfg.Seed)
	pass := func() float64 {
		sum := 0.0
		t0 := time.Now()
		for _, e := range edges {
			sum += model.RTT(e[0], e[1])
		}
		d := time.Since(t0)
		rttSink += sum
		return float64(d.Nanoseconds()) / float64(len(edges))
	}
	cold = pass()
	warm = pass()
	return cold, warm
}

// simOut is one traced campaign-replay simulation.
type simOut struct {
	r       *core.RunResult
	runWall time.Duration
	clock   *kindClock
}

// runReplay runs the churn-campaign's simulations directly, on the
// campaign's worker count and through the same exper.Stream pool the
// campaign uses, then folds them into cells the way the campaign does. Its
// cells.csv must hash to the campaign's. A non-nil tracer instruments
// every simulation.
func runReplay(w *workload, tr *tracer) *batch {
	b := &batch{}
	runs := make([]*core.RunResult, len(w.jobs))
	perCell := len(w.jobs) / w.cells
	runtime.GC()
	start := time.Now()
	exper.Stream(len(w.jobs), w.workers, func(i int) simOut {
		j := w.jobs[i]
		cfg := j.cfg
		if tr != nil {
			cfg.Obs = obs.NewRegistry()
		}
		s := core.NewSimulation(cfg, j.behavior)
		t1 := time.Now()
		var clock *kindClock
		if tr != nil {
			clock = newKindClock()
			s.Engine.SetObserver(clock.observe)
		}
		r := s.RunMeasured(j.warmup, j.measured)
		return simOut{r: r, runWall: time.Since(t1), clock: clock}
	}, func(i int, out simOut) {
		runs[i] = out.r
		b.simWall += out.runWall.Seconds()
		b.queries += w.jobs[i].warmup + w.jobs[i].measured
		if tr != nil {
			tr.addRun(out.clock, out.runWall)
		}
		checkRun(b, w.jobs[i], out.r)
		if (i+1)%perCell == 0 {
			b.cellDone = append(b.cellDone, time.Since(start).Seconds())
		}
	})
	b.wall = time.Since(start).Seconds()
	b.runs = runs
	b.digest, b.detail = csvDigest(foldCampaign(w, runs))
	return b
}

// foldCampaign aggregates the replay's runs into the campaign's cells
// exactly as sweep.Plan.RunCells does and renders cells.csv.
func foldCampaign(w *workload, runs []*core.RunResult) string {
	c := w.camp
	camp := c.plan.NewCampaign()
	for cell := range camp.Cells {
		for p := range c.protos {
			lo := (cell*len(c.protos) + p) * c.trials
			group := runs[lo : lo+c.trials]
			camp.Cells[cell].Protocols = append(camp.Cells[cell].Protocols, sweep.ProtocolCell{
				Protocol: c.protos[p],
				Summary:  core.SummarizeTrials(group),
				Phases:   core.AggregateRunPhases(group),
			})
		}
	}
	return camp.CSV()
}

// quantile returns the q-quantile of v (sorted in place), or 0 when empty.
func quantile(v []int32, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	slices.Sort(v)
	i := int(q * float64(len(v)-1))
	return float64(v[i])
}

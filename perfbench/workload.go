package main

import (
	"encoding/json"
	"fmt"

	"github.com/p2prepro/locaware"
	"github.com/p2prepro/locaware/internal/core"
	"github.com/p2prepro/locaware/internal/protocol"
	"github.com/p2prepro/locaware/internal/scenario"
	"github.com/p2prepro/locaware/internal/sim"
	"github.com/p2prepro/locaware/internal/sweep"
)

// Workload names, as passed to --workload.
const (
	scale200k     = "scale-200k"
	churnCampaign = "churn-campaign"
)

var workloadNames = []string{scale200k, churnCampaign}

// sizes fixes every size a workload depends on. fullSizes is the benchmark;
// toySizes keeps the same shapes small enough for the self-test.
type sizes struct {
	name string

	scalePeers, scaleWarmup, scaleQueries int

	campPeers, campWarmup, campQueries, campTrials int
	campIntensity, campCapacity                    []float64
}

var fullSizes = sizes{
	name:       "full",
	scalePeers: 200000, scaleWarmup: 1000, scaleQueries: 3000,
	campPeers: 500, campWarmup: 300, campQueries: 1000, campTrials: 2,
	campIntensity: []float64{0.5, 1, 2},
	campCapacity:  []float64{5, 50},
}

var toySizes = sizes{
	name:       "toy",
	scalePeers: 3000, scaleWarmup: 40, scaleQueries: 120,
	campPeers: 120, campWarmup: 20, campQueries: 60, campTrials: 2,
	campIntensity: []float64{1, 2},
	campCapacity:  []float64{5, 50},
}

// simJob is one simulation a workload runs: the world and protocol handed
// to core.NewSimulation and the query budget handed to RunMeasured.
type simJob struct {
	label            string
	cfg              core.Config
	behavior         protocol.Behavior
	warmup, measured int
}

// workload is a fixed-size batch: the simulations it runs, grouped into
// cells, and the worker count they run on. For churn-campaign the batch
// itself is one RunSweepCheckpointed call; jobs then lists the same
// simulations, lowered the way the campaign lowers them, for the traced
// replay and the set-up measurement.
type workload struct {
	workers int
	cells   int
	jobs    []simJob
	camp    *campaignDef
}

// campaignDef is the churn-campaign sweep in its facade form (what the
// untraced batch runs) and its internal plan (what the replay folds into).
type campaignDef struct {
	opts   locaware.Options
	sweep  *locaware.Sweep
	plan   *sweep.Plan
	protos []string
	trials int
}

// queries is the workload's total warmup plus measured query count.
func (w *workload) queries() int {
	n := 0
	for _, j := range w.jobs {
		n += j.warmup + j.measured
	}
	return n
}

// newWorkload builds the named workload for seed. The seed reaches the
// program only as Options.Seed (core.Config.Seed, its lowering); checkBase
// proves the lowering matches the facade's.
func newWorkload(name string, seed int64, sz sizes) (*workload, error) {
	switch name {
	case scale200k:
		o := locaware.DefaultOptions()
		o.Seed = seed
		o.Peers = sz.scalePeers
		cfg := core.DefaultConfig()
		cfg.Seed = seed
		cfg.NumPeers = sz.scalePeers
		if err := checkBase(o, cfg); err != nil {
			return nil, err
		}
		b := protocol.Locaware{}
		return &workload{workers: 1, cells: 1, jobs: []simJob{{label: b.Name(), cfg: cfg,
			behavior: b, warmup: sz.scaleWarmup, measured: sz.scaleQueries}}}, nil
	case churnCampaign:
		return newCampaign(seed, sz)
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// checkBase proves cfg is the facade's lowering of o, by comparing the
// campaign content hashes a probe sweep gets over each: the hash covers
// every serialised field of the base configuration.
func checkBase(o locaware.Options, cfg core.Config) error {
	const probe = `{"name":"base-probe","warmup":1,"queries":1,"axes":[{"param":"ttl","values":[7]}]}`
	sw, err := locaware.ParseSweep([]byte(probe))
	if err != nil {
		return err
	}
	want, err := locaware.SweepFingerprint(o, sw)
	if err != nil {
		return err
	}
	spec, err := sweep.ParseSpec([]byte(probe))
	if err != nil {
		return err
	}
	plan, err := sweep.NewPlan(cfg, spec)
	if err != nil {
		return err
	}
	if plan.Hash() != want {
		return fmt.Errorf("benchmark world config differs from the facade's lowering of Options")
	}
	return nil
}

// campaignJSON is the churn-campaign sweep: Dicas and Locaware under
// churn-waves, churn intensity × response-index capacity.
func campaignJSON(sz sizes) ([]byte, error) {
	spec := map[string]any{
		"name":      "bench-churn-campaign",
		"protocols": []string{"Dicas", "Locaware"},
		"warmup":    sz.campWarmup,
		"queries":   sz.campQueries,
		"trials":    sz.campTrials,
		"scenario":  "churn-waves",
		"base":      map[string]float64{sweep.ParamPeers: float64(sz.campPeers)},
		"axes": []map[string]any{
			{"param": sweep.ParamIntensity, "values": sz.campIntensity},
			{"param": sweep.ParamCacheFilenames, "values": sz.campCapacity},
		},
	}
	return json.Marshal(spec)
}

func newCampaign(seed int64, sz sizes) (*workload, error) {
	data, err := campaignJSON(sz)
	if err != nil {
		return nil, err
	}
	sw, err := locaware.ParseSweep(data)
	if err != nil {
		return nil, err
	}
	spec, err := sweep.ParseSpec(data)
	if err != nil {
		return nil, err
	}
	o := locaware.DefaultOptions()
	o.Seed = seed
	o.Workers = 2
	base := core.DefaultConfig()
	base.Seed = seed
	if err := checkBase(o, base); err != nil {
		return nil, err
	}
	plan, err := sweep.NewPlan(base, spec)
	if err != nil {
		return nil, err
	}
	protos := plan.Protocols()
	behaviors := make([]protocol.Behavior, len(protos))
	for i, p := range protos {
		switch p {
		case "Dicas":
			behaviors[i] = protocol.Dicas{}
		case "Locaware":
			behaviors[i] = protocol.Locaware{}
		default:
			return nil, fmt.Errorf("campaign protocol %q has no behaviour here", p)
		}
	}
	w := &workload{workers: o.Workers, cells: plan.NumCells(),
		camp: &campaignDef{opts: o, sweep: sw, plan: plan, protos: protos, trials: plan.Trials()}}
	// Lower each cell the way sweep.Spec.cellConfig does: base overrides,
	// then the cell's coordinates, then the scaled scenario; trials run
	// under sim.TrialSeed(cell seed, trial). The replay's cells.csv must
	// hash to the campaign's, which proves the lowering.
	for _, c := range plan.Cells() {
		cfg := base
		cfg.NumPeers = sz.campPeers
		sc, ok := scenario.Lookup("churn-waves")
		if !ok {
			return nil, fmt.Errorf("scenario churn-waves missing")
		}
		for _, co := range c.Coords {
			switch co.Param {
			case sweep.ParamCacheFilenames:
				cfg.Protocol.Cache.MaxFilenames = int(co.Value)
			case sweep.ParamIntensity:
				sc = sc.ScaleIntensity(co.Value)
			}
		}
		cfg.Scenario = sc
		cfg = core.ResolveScenario(cfg, sz.campQueries)
		for p, b := range behaviors {
			for t := 0; t < plan.Trials(); t++ {
				jc := cfg
				jc.Seed = sim.TrialSeed(c.Seed, t)
				w.jobs = append(w.jobs, simJob{
					label: fmt.Sprintf("cell%d/%s/t%d", c.Index, protos[p], t),
					cfg:   jc, behavior: b, warmup: sz.campWarmup, measured: sz.campQueries})
			}
		}
	}
	return w, nil
}

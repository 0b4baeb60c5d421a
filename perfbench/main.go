// Command perfbench is the repository benchmark. It runs one workload for a
// fixed wall-clock budget from a single process, checks the simulation
// outputs, and prints every metric by name with its unit; the last line of
// standard output is a JSON summary. See README.md for the workloads, the
// metrics and what each is expected to move.
//
//	perfbench --workload scale-200k --seed 1 --seconds 55 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it runs
// the workload untraced and traced in turn and reports the per-layer
// metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the command-line settings of one benchmark run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	sizes    sizes
	root     string
	work     string
}

// result is one run's outcome: the metrics in report order, the output
// check, and the notes printed above the summary.
type result struct {
	metrics           []metric
	attempted, failed int
	digest            string
	notes             []string
}

func (r *result) add(name string, value float64, unit string) {
	r.metrics = append(r.metrics, metric{name, value, unit})
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *result) absorb(b *batch) {
	r.attempted += b.attempted
	r.failed += b.failed
	for _, f := range b.failures {
		r.note("FAIL %s", f)
	}
}

func (r *result) correct() bool {
	if r.failed > 0 || r.attempted == 0 {
		return false
	}
	for _, m := range r.metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return false
		}
	}
	return true
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", fmt.Sprintf("workload to run: one of %v", workloadNames))
	fs.Int64Var(&o.seed, "seed", 1, "seed for the workload's inputs (Options.Seed)")
	fs.Float64Var(&o.seconds, "seconds", 55, "wall-clock budget for the measured batches")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced pass and reports per-layer metrics")
	fs.StringVar(&o.root, "root", ".", "module root, for the source hash and commit stamp")
	fs.StringVar(&o.work, "work", filepath.Join(".bench_build", "perfbench"), "scratch directory for checkpoints and the digest store")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace == 1
	o.sizes = fullSizes
	res, err := execute(o)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := writeReport(stdout, o, res); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// writeReport prints the host stamp, notes and metric lines, then the JSON
// summary as the last line.
func writeReport(w io.Writer, o options, res *result) error {
	h := hostInfo(o.root)
	fmt.Fprintf(w, "# perfbench workload=%s size=%s seed=%d trace=%v seconds=%s\n",
		o.workload, o.sizes.name, o.seed, o.trace, g(o.seconds))
	fmt.Fprintf(w, "# host %s seed=%d\n", h, o.seed)
	for _, n := range res.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	errRate := 0.0
	if res.attempted > 0 {
		errRate = float64(res.failed) / float64(res.attempted)
	}
	for _, m := range res.metrics {
		fmt.Fprintf(w, "%-40s %-14s %s\n", m.name, g(m.value), m.unit)
	}
	fmt.Fprintf(w, "%-40s %-14s %s\n", "error_rate", g(errRate), "ratio")

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	summary := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.correct(), res.attempted, res.failed, map[string]value{}}
	for _, m := range res.metrics {
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		summary.Metrics[m.name] = value{v, m.unit}
	}
	line, err := json.Marshal(summary)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// minBatches is the fewest untraced batches a run measures: medians need
// three.
const minBatches = 3

// execute runs one workload and assembles its metrics.
func execute(o options) (*result, error) {
	w, err := newWorkload(o.workload, o.seed, o.sizes)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return nil, err
	}
	res := &result{}
	if o.trace {
		executeTraced(o, w, res)
	} else {
		executeUntraced(o, w, res)
	}
	if res.digest != "" {
		key := fmt.Sprintf("%s-%s-seed%d-%s", o.workload, o.sizes.name, o.seed, sourceHash(o.root))
		if err := digestStore(filepath.Join(o.work, "digests"), key, res.digest); err != nil {
			res.failed++
			res.note("FAIL digest store: %v", err)
		}
	}
	return res, nil
}

// untraced runs one untraced batch of w.
func untraced(o options, w *workload, n int) *batch {
	if w.camp != nil {
		return runCampaign(w, o.work, n)
	}
	return runDirect(w, nil)
}

// traced runs one traced batch of w.
func traced(w *workload, tr *tracer) *batch {
	if w.camp != nil {
		return runReplay(w, tr)
	}
	return runDirect(w, tr)
}

// recordDigests notes each batch's digest and fails the run unless they
// all agree.
func recordDigests(res *result, batches []*batch, label string) {
	var ds []string
	for _, b := range batches {
		ds = append(ds, b.digest)
	}
	if len(batches) > 0 {
		res.digest = ds[0]
		res.note("digest %s (%s, %d batches)", ds[0], label, len(ds))
		for _, line := range batches[0].detail {
			res.note("  %s", line)
		}
	}
	if err := checkDigests(ds); err != nil {
		res.failed++
		res.note("FAIL %v", err)
	}
}

// executeUntraced repeats the batch while the budget allows. After each
// batch it builds every world the batch runs once more, apart from any
// simulation, for one setup_s sample; the budget covers both.
func executeUntraced(o options, w *workload, res *result) {
	start := time.Now()
	var batches []*batch
	var setups []float64
	for {
		b := untraced(o, w, len(batches))
		batches = append(batches, b)
		res.absorb(b)
		setups = append(setups, setupOnce(w))
		el := time.Since(start).Seconds()
		if len(batches) >= minBatches && el*float64(len(batches)+1)/float64(len(batches)) > o.seconds {
			break
		}
	}
	recordDigests(res, batches, "untraced")

	var walls, qps, cps, apq []float64
	for _, b := range batches {
		walls = append(walls, b.wall)
		qps = append(qps, float64(b.queries)/b.simWall)
		cps = append(cps, float64(w.cells)/b.wall)
		apq = append(apq, float64(b.mallocs)/float64(b.queries))
	}
	res.note("measured %d batches in %.1f s", len(batches), time.Since(start).Seconds())
	res.note("batch wall_s %s", joinG(walls))
	res.note("setup_s samples %s", joinG(setups))
	res.add("setup_s", median(setups), "s")
	res.add("wall_s", median(walls), "s")
	res.add("queries_per_s", median(qps), "1/s")
	res.add("cells_per_s", median(cps), "1/s")
	res.add("allocs_per_query", median(apq), "count")
	res.add("peak_rss_mb", peakRSSMB(), "MB")
}

// executeTraced alternates untraced and traced batches. The campaign's
// traced batch is a direct replay, so for churn-campaign each round also
// runs the replay untraced: bench.trace_overhead compares the same code
// path with and without tracing.
func executeTraced(o options, w *workload, res *result) {
	start := time.Now()
	tr := newTracer()
	t0 := time.Now()
	tr.prepass(w)
	res.note("world-build prepass %.2f s", time.Since(t0).Seconds())
	var plain, replays, instr []*batch
	for {
		u := untraced(o, w, len(plain))
		plain = append(plain, u)
		res.absorb(u)
		if w.camp != nil {
			r := runReplay(w, nil)
			replays = append(replays, r)
			res.absorb(r)
		}
		t := traced(w, tr)
		instr = append(instr, t)
		res.absorb(t)
		el := time.Since(start).Seconds()
		if el*float64(len(plain)+1)/float64(len(plain)) > o.seconds {
			break
		}
	}
	recordDigests(res, slices.Concat(plain, replays, instr), "untraced and traced")
	base := plain
	if w.camp != nil {
		base = replays
	}
	layerMetrics(res, w, tr, plain, instr)
	var baseWall, instrWall []float64
	for _, b := range base {
		baseWall = append(baseWall, b.wall)
	}
	for _, b := range instr {
		instrWall = append(instrWall, b.wall)
	}
	res.add("bench.trace_overhead", median(instrWall)/median(baseWall), "ratio")
}

// layerMetrics assembles the per-layer metrics of a traced run.
func layerMetrics(res *result, w *workload, tr *tracer, plain, instr []*batch) {
	res.add("netmodel.place_s", tr.build.place, "s")
	res.add("netmodel.model_s", tr.build.model, "s")
	res.add("netmodel.locator_s", tr.build.locator, "s")
	res.add("overlay.build_s", tr.build.overlay, "s")
	res.add("workload.catalog_s", tr.build.catalog, "s")
	res.add("workload.placement_s", tr.build.placement, "s")
	res.add("protocol.network_s", tr.build.network, "s")
	res.add("core.world_heap_mb", tr.worldHeap, "MB")

	last := instr[len(instr)-1]
	var events, cancelled, queueHW, pendingHW, msgs, successes, measured, queries uint64
	var fwdBloom, fwdGid, fwdFallback, fwdFlood, controlBits, hits, misses, storageHits uint64
	var filenames, providers int
	for i, r := range last.runs {
		if r == nil || r.Runtime == nil {
			continue
		}
		j := w.jobs[i]
		rt := r.Runtime
		events += r.Events
		cancelled += rt.EventsCancelled
		queueHW = max(queueHW, rt.QueueDepthHighWater)
		pendingHW = max(pendingHW, rt.PendingHighWater)
		msgs += r.Collector.TotalMessages()
		successes += uint64(math.Round(r.Collector.SuccessRate() * float64(r.Collector.Submitted())))
		measured += uint64(j.measured)
		queries += uint64(j.warmup + j.measured)
		fwdBloom += r.Forwarding.BloomMatched
		fwdGid += r.Forwarding.GidMatched
		fwdFallback += r.Forwarding.Fallback
		fwdFlood += r.Forwarding.FloodAll
		controlBits += r.ControlBits
		hits += rt.CacheHits
		misses += rt.CacheMisses
		storageHits += rt.StorageHits
		filenames += r.CacheFilenames
		providers += r.CacheProviderEntries
	}
	var plainSim []float64
	for _, b := range plain {
		plainSim = append(plainSim, b.simWall)
	}
	res.add("sim.events", float64(events), "count")
	res.add("sim.events_per_query", ratio(events, queries), "count")
	res.add("sim.events_per_s", float64(events)/median(plainSim), "1/s")
	res.add("sim.queue_high_water", float64(queueHW), "count")
	res.add("sim.events_cancelled", float64(cancelled), "count")

	// Per-kind interval attribution, pooled over every traced batch; the
	// shares are of the simulations' summed RunMeasured wall time.
	total := tr.runWall.Seconds()
	attributed := 0.0
	for i, k := range kinds {
		var sum int64
		for _, d := range tr.ivals[i] {
			sum += int64(d)
		}
		share := float64(sum) / 1e9 / total
		attributed += share
		res.add(k.metric+".count", float64(tr.counts[i])/float64(len(instr)), "count")
		res.add(k.metric+".median_ns", quantile(tr.ivals[i], 0.5), "ns")
		res.add(k.metric+".p99_ns", quantile(tr.ivals[i], 0.99), "ns")
		res.add(k.metric+".share", share, "ratio")
	}
	res.add("sim.unattributed.share", 1-attributed, "ratio")

	res.add("netmodel.rtt_cold_ns", tr.rttCold/float64(tr.rttProbes), "ns")
	res.add("netmodel.rtt_warm_ns", tr.rttWarm/float64(tr.rttProbes), "ns")

	res.add("protocol.msgs_per_query", ratio(msgs, measured), "count")
	res.add("protocol.msgs_per_success", ratio(msgs, successes), "count")
	res.add("protocol.success_rate", ratio(successes, measured), "ratio")
	res.add("protocol.forwards_bloom", float64(fwdBloom), "count")
	res.add("protocol.forwards_gid", float64(fwdGid), "count")
	res.add("protocol.forwards_fallback", float64(fwdFallback), "count")
	res.add("protocol.forwards_flood", float64(fwdFlood), "count")
	res.add("protocol.pending_high_water", float64(pendingHW), "count")
	res.add("bloom.control_kbits_per_query", ratio(controlBits, queries)/1000, "kbit")
	res.add("cache.hit_rate", ratio(hits, hits+misses), "ratio")
	res.add("cache.storage_hits", float64(storageHits), "count")
	res.add("cache.filenames", float64(filenames), "count")
	res.add("cache.provider_entries", float64(providers), "count")

	// Cell timing from the untraced batches: intervals between successive
	// cell completions (the first from the batch start), and the tail from
	// the second-to-last completion to the end of the batch.
	var intervals, cellMax, tails []float64
	var ckptBytes int64
	for _, b := range plain {
		prev := 0.0
		var ivs []float64
		for _, d := range b.cellDone {
			ivs = append(ivs, d-prev)
			prev = d
		}
		intervals = append(intervals, ivs...)
		if len(ivs) > 0 {
			cellMax = append(cellMax, slices.Max(ivs))
		}
		from := 0.0
		if n := len(b.cellDone); n >= 2 {
			from = b.cellDone[n-2]
		}
		tails = append(tails, b.wall-from)
		ckptBytes = b.checkpointBytes
	}
	res.add("campaign.cell_s_median", median(intervals), "s")
	res.add("campaign.cell_s_max", median(cellMax), "s")
	res.add("exper.tail_idle_s", median(tails), "s")
	res.add("campaign.checkpoint_bytes", float64(ckptBytes), "bytes")
}

func joinG(v []float64) string {
	s := make([]string, len(v))
	for i, x := range v {
		s[i] = strconv.FormatFloat(x, 'f', 4, 64)
	}
	return strings.Join(s, " ")
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

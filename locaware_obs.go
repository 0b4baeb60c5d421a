package locaware

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"

	"github.com/p2prepro/locaware/internal/campaign"
	"github.com/p2prepro/locaware/internal/core"
	"github.com/p2prepro/locaware/internal/obs"
)

// Observer is a run-wide observability registry: attach one to
// Options.Observer (or CampaignOptions.Observer) and every simulation
// executed under it accumulates event-loop, protocol and campaign
// telemetry — counters, gauges and log-scale histograms — into one
// scrapeable surface. Instrumentation is provably inert: the hot path
// only increments run-local cells (folded into the registry at the end of
// the run), never touches an RNG stream or event order, so results are
// byte-identical with or without an Observer.
//
// One Observer may be shared across concurrent runs; totals then cover
// all of them. Per-run snapshots are on Result.Runtime.
type Observer struct {
	reg *obs.Registry
}

// NewObserver returns an Observer with the full metric catalog
// pre-registered, so a scrape before the first run still advertises
// every family.
func NewObserver() *Observer {
	reg := obs.NewRegistry()
	core.RegisterObsFamilies(reg)
	campaign.RegisterMetrics(reg)
	return &Observer{reg: reg}
}

// Handler returns an http.Handler serving the Prometheus text exposition
// on /metrics and the runtime profiles on /debug/pprof/.
func (o *Observer) Handler() http.Handler { return obs.Handler(o.reg) }

// WriteMetrics writes the registry in Prometheus text exposition format
// (families and series in sorted order).
func (o *Observer) WriteMetrics(w io.Writer) error { return o.reg.WritePrometheus(w) }

// RuntimeStats is one run's observability snapshot — what that run
// contributed to its Observer, assembled from the run's own cells, so it
// is meaningful even when the Observer is shared.
type RuntimeStats struct {
	// EventsByKind counts delivered events per kind (query-deliver,
	// response-deliver, gossip-round, ...).
	EventsByKind map[string]uint64
	// EventsScheduled counts all schedule calls, including events later
	// dropped by the horizon.
	EventsScheduled uint64
	// EventsCancelled counts cancelled events the scheduler discarded,
	// whether skipped at pop time or reaped during a calendar rebuild.
	EventsCancelled uint64
	// QueueDepthHighWater is the deepest the event queue got.
	QueueDepthHighWater uint64
	// FreeListEvents is the pooled-event capacity left at end of run.
	FreeListEvents int
	// Protocol-plane counters.
	Submitted        uint64
	Finalized        uint64
	CacheHits        uint64
	CacheMisses      uint64
	StorageHits      uint64
	PendingHighWater uint64
	// TraceEventsDropped counts trace events discarded by a full tracer
	// buffer (RunTraced's bounded buffer). Non-zero means the trace is
	// incomplete — raise maxEvents, or switch to a FlightRecorder, whose
	// tail sampling never overflows. Always 0 when untraced.
	TraceEventsDropped uint64
	// PoolFree is per-pool free-list occupancy at end of run.
	PoolFree map[string]int
}

func liftRuntime(rs *core.RuntimeStats) *RuntimeStats {
	if rs == nil {
		return nil
	}
	return &RuntimeStats{
		EventsByKind:        rs.EventsByKind,
		EventsScheduled:     rs.EventsScheduled,
		EventsCancelled:     rs.EventsCancelled,
		QueueDepthHighWater: rs.QueueDepthHighWater,
		FreeListEvents:      rs.FreeListEvents,
		Submitted:           rs.Submitted,
		Finalized:           rs.Finalized,
		CacheHits:           rs.CacheHits,
		CacheMisses:         rs.CacheMisses,
		StorageHits:         rs.StorageHits,
		PendingHighWater:    rs.PendingHighWater,
		TraceEventsDropped:  rs.TraceEventsDropped,
		PoolFree:            rs.PoolFree,
	}
}

// Report renders the snapshot as an aligned, human-readable run report —
// what cmd/locaware-exp prints under -stats.
func (rs *RuntimeStats) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "runtime stats:\n")
	fmt.Fprintf(&b, "  event loop:\n")
	fmt.Fprintf(&b, "    %-28s %d\n", "events scheduled", rs.EventsScheduled)
	fmt.Fprintf(&b, "    %-28s %d\n", "events cancelled", rs.EventsCancelled)
	fmt.Fprintf(&b, "    %-28s %d\n", "queue depth high water", rs.QueueDepthHighWater)
	fmt.Fprintf(&b, "    %-28s %d\n", "event freelist len", rs.FreeListEvents)
	if len(rs.EventsByKind) > 0 {
		fmt.Fprintf(&b, "  events by kind:\n")
		kinds := make([]string, 0, len(rs.EventsByKind))
		for k := range rs.EventsByKind {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		for _, k := range kinds {
			fmt.Fprintf(&b, "    %-28s %d\n", k, rs.EventsByKind[k])
		}
	}
	fmt.Fprintf(&b, "  protocol:\n")
	fmt.Fprintf(&b, "    %-28s %d\n", "queries submitted", rs.Submitted)
	fmt.Fprintf(&b, "    %-28s %d\n", "queries finalized", rs.Finalized)
	fmt.Fprintf(&b, "    %-28s %d\n", "cache hits", rs.CacheHits)
	fmt.Fprintf(&b, "    %-28s %d\n", "cache misses", rs.CacheMisses)
	fmt.Fprintf(&b, "    %-28s %d\n", "storage hits", rs.StorageHits)
	fmt.Fprintf(&b, "    %-28s %d\n", "pending queries high water", rs.PendingHighWater)
	if rs.TraceEventsDropped > 0 {
		fmt.Fprintf(&b, "  warning: trace buffer overflowed; %d events dropped (trace is incomplete)\n", rs.TraceEventsDropped)
	}
	if len(rs.PoolFree) > 0 {
		fmt.Fprintf(&b, "  pool free lists:\n")
		pools := make([]string, 0, len(rs.PoolFree))
		for p := range rs.PoolFree {
			pools = append(pools, p)
		}
		sort.Strings(pools)
		for _, p := range pools {
			fmt.Fprintf(&b, "    %-28s %d\n", p, rs.PoolFree[p])
		}
	}
	return b.String()
}

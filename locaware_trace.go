package locaware

import (
	"fmt"
	"io"

	"github.com/p2prepro/locaware/internal/core"
	"github.com/p2prepro/locaware/internal/sim"
	"github.com/p2prepro/locaware/internal/trace"
)

// FlightRecorder configures tail-sampling causal query tracing
// (Options.FlightRecorder): every query's events buffer only while the
// query is in flight, and on finalisation the trace is kept iff it matches
// at least one retention criterion — so the outliers of a huge run are
// caught in constant memory. Retained traces land on Result.Traces as
// reconstructed causal span trees (submission → per-hop forwards → hit →
// reverse-path response hops → download), renderable as text timelines or
// exportable to Chrome/Perfetto via Result.WritePerfetto.
//
// Recording is inert: all metrics are byte-identical with or without a
// recorder attached.
type FlightRecorder struct {
	// SlowestN retains the N completed queries with the highest latency
	// (download time for answered queries, time-to-finalize for failed
	// ones), tracked in constant memory. 0 disables the criterion.
	SlowestN int
	// KeepFailed retains every query that finalised without an answer.
	KeepFailed bool
	// MinHops retains queries whose flood reached at least this forward
	// depth. 0 disables the criterion.
	MinHops int
	// MaxEventsPerQuery bounds the in-flight buffer per query; overflow is
	// counted in Trace.DroppedEvents. <= 0 means 256.
	MaxEventsPerQuery int
	// MaxKeep caps the KeepFailed/MinHops retentions so a pathological run
	// cannot retain without bound. <= 0 means 64.
	MaxKeep int
}

// policy lowers the facade recorder to the internal retention policy.
func (fr *FlightRecorder) policy() *trace.Policy {
	return &trace.Policy{
		KeepFailed:        fr.KeepFailed,
		MinHops:           fr.MinHops,
		SlowestN:          fr.SlowestN,
		MaxEventsPerQuery: fr.MaxEventsPerQuery,
		MaxKeep:           fr.MaxKeep,
	}
}

// Trace is one retained query's causal record (Options.FlightRecorder).
type Trace struct {
	// Query is the query's 1-based submission sequence number.
	Query uint64
	// SubmitSeconds is the submission timestamp in virtual seconds.
	SubmitSeconds float64
	// LatencySeconds is the completion latency in seconds: download time
	// minus submission for answered queries, time-to-finalize for failures.
	LatencySeconds float64
	// Hops is the deepest forward chain the query reached.
	Hops int
	// Failed reports the query finalised without an answer.
	Failed bool
	// Why names the retention criteria that kept the trace ("failed",
	// "hops", "slowest", comma-joined).
	Why string
	// Events is the query's flat event log in virtual-time order.
	Events []TraceEvent
	// DroppedEvents counts events discarded by MaxEventsPerQuery.
	DroppedEvents int

	qt         *trace.QueryTrace
	processing sim.Time
}

// Render reconstructs the query's span tree and formats it as an indented
// text timeline: one line per span with offsets relative to submission and
// each closed hop's latency split into propagation and processing.
func (t *Trace) Render() string {
	tree := t.qt.Tree(t.processing)
	if tree == nil {
		return ""
	}
	return tree.Render()
}

// liftTraces converts a run's retained traces into the facade shape.
func liftTraces(r *core.RunResult) []*Trace {
	if len(r.Traces) == 0 {
		return nil
	}
	out := make([]*Trace, len(r.Traces))
	for i, qt := range r.Traces {
		events := make([]TraceEvent, len(qt.Events))
		for j, e := range qt.Events {
			events[j] = TraceEvent{
				AtSeconds: e.At.Seconds(),
				Kind:      e.Kind.String(),
				Query:     e.Query,
				Peer:      e.Peer,
				From:      e.From,
				Detail:    e.Detail,
			}
		}
		out[i] = &Trace{
			Query:          qt.Query,
			SubmitSeconds:  qt.Submit.Seconds(),
			LatencySeconds: qt.Latency.Seconds(),
			Hops:           qt.Hops,
			Failed:         qt.Failed,
			Why:            qt.Why,
			Events:         events,
			DroppedEvents:  qt.Dropped,
			qt:             qt,
			processing:     r.TraceProcessing,
		}
	}
	return out
}

// SweepExemplar is one campaign cell's worst-case query trace: the
// highest-latency trace retained across the cell's (protocol × trial)
// runs, pre-rendered as a text timeline. Cells carry exemplars when the
// campaign runs with tracing enabled (Options.FlightRecorder for RunSweep,
// CampaignOptions.FlightRecorder for the distributed modes).
type SweepExemplar struct {
	// Protocol and Trial locate the run that produced the trace.
	Protocol Protocol
	Trial    int
	// Query is the traced query's id.
	Query uint64
	// LatencySeconds is the query's completion latency.
	LatencySeconds float64
	// Failed reports the query finalised without an answer.
	Failed bool
	// Hops is the deepest forward chain the query reached.
	Hops int
	// Rendered is the trace's span-tree text timeline.
	Rendered string
}

// CellExemplar returns grid cell `cell`'s worst-case query trace, or nil
// when the cell carries none (campaign ran untraced, or no trace matched
// the retention policy).
func (r *SweepResult) CellExemplar(cell int) (*SweepExemplar, error) {
	if cell < 0 || cell >= len(r.campaign.Cells) {
		return nil, fmt.Errorf("locaware: cell %d out of range [0, %d)", cell, len(r.campaign.Cells))
	}
	ex := r.campaign.Cells[cell].Exemplar
	if ex == nil {
		return nil, nil
	}
	return &SweepExemplar{
		Protocol:       Protocol(ex.Protocol),
		Trial:          ex.Trial,
		Query:          ex.Query,
		LatencySeconds: ex.LatencySeconds,
		Failed:         ex.Failed,
		Hops:           ex.Hops,
		Rendered:       ex.Rendered,
	}, nil
}

// WritePerfetto exports the run's retained traces in the Chrome trace-event
// JSON format, loadable in Perfetto (ui.perfetto.dev) or chrome://tracing:
// one track per participating peer, one complete event per span, and a
// global instant per scenario phase entry. It is a no-op JSON document when
// the run retained no traces; it errors only on writer failure.
func (r *Result) WritePerfetto(w io.Writer) error {
	trees := make([]*trace.SpanTree, 0, len(r.Traces))
	for _, t := range r.Traces {
		if tree := t.qt.Tree(t.processing); tree != nil {
			trees = append(trees, tree)
		}
	}
	return trace.WritePerfetto(w, trees, r.tracePhases)
}

// Package selfprofile is the store half of thicketd's dogfood loop. The
// monitor's tick (internal/monitor) drains the slow request traces the
// telemetry Collector's tail sampler retained; this package turns each
// one into a native thicket profile (TraceProfile) and streams self-data
// into a dedicated directory store (StoreWriter). The profile's metadata
// rows carry the request identity (endpoint, trace ID, wall-clock
// timestamp, HTTP status), so `thicket query` and thicketd can run the
// same exploratory analysis over the server's own performance forest as
// over any Caliper-style ensemble.
package selfprofile

import (
	"fmt"
	"time"

	"repro/internal/dataframe"
	"repro/internal/profile"
	"repro/internal/telemetry"
)

// Metadata columns stamped on every exported profile, next to the
// "source" column FromTraceNodes always writes.
const (
	MetaEndpoint  = "endpoint"
	MetaTraceID   = "trace_id"
	MetaTimestamp = "timestamp" // unix nanoseconds of the trace's end
	MetaStatus    = "status"    // HTTP status of the root request, -1 if unknown
	MetaReason    = "reason"    // retention reason (always "slow" today)
	MetaDurNS     = "dur_ns"
	MetaSeq       = "seq" // collector sequence number (eviction-gap detector)

	// Plan-efficiency columns, lifted from the ExecStats attrs the
	// server stamps on compiled where= requests; -1 when the request
	// ran no compiled plan. They make the dogfood store answerable for
	// "which slow queries scanned the most blocks?".
	MetaPlanBlocksScanned    = "plan_blocks_scanned"
	MetaPlanBlocksSkipped    = "plan_blocks_skipped"
	MetaPlanSegmentsPruned   = "plan_segments_pruned"
	MetaPlanRowsMaterialized = "plan_rows_materialized"
)

// TraceProfile converts one retained trace into a native profile: the
// call tree from the span tree, and the request-identity metadata
// columns. meta (server identity such as addr or store path) is stamped
// too; its keys win over the per-trace columns.
func TraceProfile(rt telemetry.RetainedTrace, meta map[string]dataframe.Value) (*profile.Profile, error) {
	intAttrs := map[string]int64{
		"status":                 -1,
		MetaPlanBlocksScanned:    -1,
		MetaPlanBlocksSkipped:    -1,
		MetaPlanSegmentsPruned:   -1,
		MetaPlanRowsMaterialized: -1,
	}
	for _, a := range rt.Root.Attrs {
		if v, ok := intAttrs[a.Key]; ok && v == -1 {
			fmt.Sscanf(a.Value, "%d", &v)
			intAttrs[a.Key] = v
		}
	}
	end := telemetry.EpochWall().Add(time.Duration(rt.Root.EndNS))
	cols := map[string]dataframe.Value{
		MetaEndpoint:             dataframe.Str(rt.Root.Name),
		MetaTraceID:              dataframe.Str(rt.TraceID),
		MetaTimestamp:            dataframe.Int64(end.UnixNano()),
		MetaStatus:               dataframe.Int64(intAttrs["status"]),
		MetaReason:               dataframe.Str(rt.Reason),
		MetaDurNS:                dataframe.Int64(rt.DurNS),
		MetaSeq:                  dataframe.Int64(int64(rt.Seq)),
		MetaPlanBlocksScanned:    dataframe.Int64(intAttrs[MetaPlanBlocksScanned]),
		MetaPlanBlocksSkipped:    dataframe.Int64(intAttrs[MetaPlanBlocksSkipped]),
		MetaPlanSegmentsPruned:   dataframe.Int64(intAttrs[MetaPlanSegmentsPruned]),
		MetaPlanRowsMaterialized: dataframe.Int64(intAttrs[MetaPlanRowsMaterialized]),
	}
	for k, v := range meta {
		cols[k] = v
	}
	return profile.FromTraceNodes([]*telemetry.TraceNode{rt.Root}, cols)
}

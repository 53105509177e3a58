package obs

// Snapshot is the single reporting surface of a run. Engine.Snapshot()
// assembles one from the cluster counters, the PS master's stats and (when
// tracing is on) the tracer's phase aggregates. The sub-structs are plain
// data so obs stays a leaf package.

import (
	"fmt"
	"strings"
)

// Snapshot is the full end-of-run report.
type Snapshot struct {
	WallSec float64 // virtual time at which the job finished
	Events  uint64  // simulation events processed

	Net         NetSnapshot
	Recovery    RecoverySnapshot
	Fusion      FusionSnapshot
	Cache       CacheSnapshot
	Consistency ConsistencySnapshot
	Load        LoadSnapshot
	Migration   MigrationSnapshot
	Serve       ServeSnapshot
	Par         ParSnapshot
	Phases      PhaseSnapshot
}

// ConsistencySnapshot is the freshness-decision view, mirroring
// ps.ConsistencyStats: per-value verdicts issued by the consistency policy
// across the cache, replica and serving layers, plus the adaptive policy's
// bound movements. All fields are zero when no policy-decided layer ran.
type ConsistencySnapshot struct {
	Policy string // governing policy name ("clock", "value", "adaptive")

	ServedCached uint64 // values served locally on a policy verdict
	Revalidated  uint64 // values revalidated if-modified-since
	HardPulled   uint64 // values refetched outright (stamp could not match)

	Tightenings    uint64  // adaptive effective-bound shrinks
	Relaxations    uint64  // adaptive effective-bound growths
	EffectiveBound float64 // adaptive bound at snapshot time (0 when none)
}

// Decisions returns the total policy verdicts issued.
func (c ConsistencySnapshot) Decisions() uint64 {
	return c.ServedCached + c.Revalidated + c.HardPulled
}

// ServeRate returns the fraction of verdicts that served without any owner
// traffic.
func (c ConsistencySnapshot) ServeRate() float64 {
	if c.Decisions() == 0 {
		return 0
	}
	return float64(c.ServedCached) / float64(c.Decisions())
}

// Active reports whether any policy verdict was issued.
func (c ConsistencySnapshot) Active() bool { return c.Decisions() > 0 }

// ParSnapshot is the host-parallelism view, mirroring the internal/par pool
// counters: how many Range/Reduce calls ran, how many went inline versus
// fanned out, and the row widths observed — the evidence behind the
// MinParallel threshold (ROADMAP item 2). Counters only; nothing here feeds
// back into behavior.
type ParSnapshot struct {
	Calls    uint64 // Range/Reduce invocations
	Inline   uint64 // of those, run inline (below MinParallel or 1 worker)
	Parallel uint64 // of those, fanned out to the worker pool
	WidthSum uint64 // sum of observed widths (n), for the mean
	MaxWidth uint64 // widest single call observed
}

// MeanWidth returns the average width of Range/Reduce calls, or 0.
func (p ParSnapshot) MeanWidth() float64 {
	if p.Calls == 0 {
		return 0
	}
	return float64(p.WidthSum) / float64(p.Calls)
}

// Active reports whether the pool saw any calls.
func (p ParSnapshot) Active() bool { return p.Calls > 0 }

// ServeSnapshot is the serving-tier view, mirroring ps.ServeStats: reads
// through ModelReader, snapshot pins/fences, and admission-control queueing
// and shedding. All fields are zero when the run never served.
type ServeSnapshot struct {
	Reads    uint64 // ModelReader read operators completed
	ReadVals uint64 // values those reads returned

	SnapshotsPinned uint64 // ModelSnapshot pins taken
	SnapshotReads   uint64 // reads served at a pinned clock
	SnapshotFences  uint64 // snapshot reads refused because the pin was epoch-fenced

	Admitted      uint64  // calls admission control let through
	Delayed       uint64  // of those, calls that waited for a token
	QueueDelaySec float64 // total virtual time spent queued
	MaxQueueDepth int     // deepest queue observed (waiting calls)
	ShedServe     uint64  // serve-class calls shed with ErrOverload
	ShedTrain     uint64  // train-class calls shed with ErrOverload
}

// ShedRate returns the fraction of admission-gated calls that were shed.
func (v ServeSnapshot) ShedRate() float64 {
	total := v.Admitted + v.ShedServe + v.ShedTrain
	if total == 0 {
		return 0
	}
	return float64(v.ShedServe+v.ShedTrain) / float64(total)
}

// Active reports whether the serving tier or admission gate saw any traffic.
func (v ServeSnapshot) Active() bool {
	return v.Reads+v.SnapshotsPinned+v.Admitted+v.ShedServe+v.ShedTrain > 0
}

// MigrationSnapshot is the elastic-membership view: completed and aborted
// placement migrations, membership churn, the bytes the shard moves cost and
// how long the route gate stayed closed. All fields are zero for static runs.
type MigrationSnapshot struct {
	Migrations     int
	Aborts         int
	ServersAdded   int
	ServersRemoved int
	BulkBytes      float64 // streamed while training continued (gate open)
	DeltaBytes     float64 // shipped during cutovers (gate closed)
	GateClosedSec  float64 // total virtual time operators were fenced
}

// MovedMB returns all bytes migrations moved, in MB.
func (m MigrationSnapshot) MovedMB() float64 { return (m.BulkBytes + m.DeltaBytes) / 1e6 }

// Active reports whether any membership change or migration happened.
func (m MigrationSnapshot) Active() bool {
	return m.Migrations+m.Aborts+m.ServersAdded+m.ServersRemoved > 0
}

// LoadSnapshot is the placement view: how evenly request traffic spread over
// the physical parameter servers. Ops counts shard calls served and Bytes the
// request+response payload, both indexed by physical server. The imbalance
// gauges are max/mean ratios — 1.0 is a perfectly even spread, S (the server
// count) means one server carried everything.
type LoadSnapshot struct {
	Ops   []float64
	Bytes []float64
}

// imbalance returns max/mean of xs, or 0 for an empty or all-zero slice.
func imbalance(xs []float64) float64 {
	var sum, maxV float64
	for _, x := range xs {
		sum += x
		if x > maxV {
			maxV = x
		}
	}
	if sum <= 0 {
		return 0
	}
	return maxV / (sum / float64(len(xs)))
}

// OpsImbalance returns the max/mean ratio of per-server served calls.
func (l LoadSnapshot) OpsImbalance() float64 { return imbalance(l.Ops) }

// BytesImbalance returns the max/mean ratio of per-server served bytes.
func (l LoadSnapshot) BytesImbalance() float64 { return imbalance(l.Bytes) }

// Active reports whether any server load was recorded.
func (l LoadSnapshot) Active() bool {
	for _, x := range l.Ops {
		if x > 0 {
			return true
		}
	}
	return false
}

// NetSnapshot is the communication view: RPC-layer counters from the PS
// master plus NIC byte counters grouped by role.
type NetSnapshot struct {
	RPCCalls     uint64 // logical shard calls
	RPCAttempts  uint64 // raw send attempts (> RPCCalls under chaos retries)
	DedupHits    uint64 // retried mutations absorbed by a server's applied-set
	DedupPruned  uint64 // dedup entries retired by the ack watermark
	MessagesLost uint64 // messages the chaos layer dropped

	// Transport is the data-plane backend's view of the same traffic: which
	// backend carried it and its cumulative send/byte accounting.
	Transport       string // backend name ("simnet", "tcp")
	TransportSends  uint64 // delivered data-plane transfers
	TransportErrors uint64 // transfers that surfaced a loss or dead endpoint
	TransportMB     float64

	DriverSentMB   float64
	DriverRecvMB   float64
	ExecutorSentMB float64
	ExecutorRecvMB float64
	ServerSentMB   float64
	ServerRecvMB   float64
}

// TotalMB returns all bytes put on the wire, in MB.
func (n NetSnapshot) TotalMB() float64 {
	return n.DriverSentMB + n.ExecutorSentMB + n.ServerSentMB
}

// RecoverySnapshot is the self-healing view: crashes, detection latency,
// recovery time, checkpoint and restore traffic.
type RecoverySnapshot struct {
	ServerCrashes    int     // environment-injected server crashes
	Detections       int     // servers the monitor declared dead
	DetectLatencySum float64 // seconds from crash to declaration, summed
	Recoveries       int     // completed recovery runs
	RecoverySecSum   float64 // seconds spent restoring, summed

	RestoreBytes       float64 // checkpoint bytes replayed store → replacement
	ZeroRestoredShards int     // shards reallocated as zeros (no checkpoint)

	CheckpointBytesWritten float64 // what actually crossed the wire
	CheckpointBytesFull    float64 // what full snapshots would have cost
}

// MeanDetectLatency returns the average crash-to-detection latency in
// seconds, or 0 when nothing was detected.
func (r RecoverySnapshot) MeanDetectLatency() float64 {
	if r.Detections == 0 {
		return 0
	}
	return r.DetectLatencySum / float64(r.Detections)
}

// MeanRecoverySec returns the average restore duration in seconds, or 0.
func (r RecoverySnapshot) MeanRecoverySec() float64 {
	if r.Recoveries == 0 {
		return 0
	}
	return r.RecoverySecSum / float64(r.Recoveries)
}

// FusionSnapshot is the operator-fusion view.
type FusionSnapshot struct {
	Batches  uint64 // fused batch executions (dcv.Batch.Run fan-outs)
	FusedOps uint64 // column ops that rode a fused request
}

// CacheSnapshot is the worker-side parameter cache and write-combining view,
// mirroring ps.CacheStats. All fields are zero when no CachedClient was used.
type CacheSnapshot struct {
	Hits           uint64 // pulls served entirely from cache, no RPC
	Misses         uint64 // pulls that needed a fetch/validate round trip
	Validations    uint64 // cached entries revalidated by version stamp
	ValidationHits uint64 // revalidations where the entry was still current
	Evictions      uint64 // entries dropped by the byte-capacity LRU
	EpochFences    uint64 // entries fenced after a server recovery epoch bump

	PulledMB   float64 // bytes cached pulls actually moved
	BaselineMB float64 // bytes the same pulls would have moved uncached

	CombinedPushes uint64  // deltas absorbed by write-combining buffers
	Flushes        uint64  // coalesced flush rounds
	FlushedMB      float64 // bytes the coalesced flushes moved
	FlushBaseMB    float64 // bytes the unbuffered pushes would have moved
}

// HitRate returns the fraction of cached pulls served without a round trip.
func (c CacheSnapshot) HitRate() float64 {
	if c.Hits+c.Misses == 0 {
		return 0
	}
	return float64(c.Hits) / float64(c.Hits+c.Misses)
}

// SavedMB returns the pull traffic the cache avoided, in MB.
func (c CacheSnapshot) SavedMB() float64 { return c.BaselineMB - c.PulledMB }

// Active reports whether any cached pull or combined push happened.
func (c CacheSnapshot) Active() bool {
	return c.Hits+c.Misses+c.CombinedPushes > 0
}

// PhaseSnapshot answers "where did the time go". The span-derived fields
// (Comm/Wait/Recovery, from the tracer) are zero when the run was untraced —
// Traced says which; the core-second fields come from node counters and are
// always present.
type PhaseSnapshot struct {
	Traced bool
	PhaseBreakdown

	ExecutorCoreSec float64
	ServerCoreSec   float64
}

// Summary renders the breakdown as a compact line, the form benchmarks print
// next to their tables. Percentages are shares of the total accounted
// resource-seconds (compute core-seconds plus traced comm/wait/recovery span
// time) — lanes run concurrently, so the total can exceed wallSec and a
// percent-of-wall reading would be meaningless.
func (p PhaseSnapshot) Summary(wallSec float64) string {
	compute := p.ExecutorCoreSec + p.ServerCoreSec
	total := compute + p.CommSec + p.WaitSec + p.RecoverySec
	pct := func(v float64) string {
		if total <= 0 {
			return "n/a"
		}
		return fmt.Sprintf("%.1f%%", 100*v/total)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "over %.2fs wall: compute %s (exec %.2f + srv %.2f core-s)",
		wallSec, pct(compute), p.ExecutorCoreSec, p.ServerCoreSec)
	if p.Traced {
		fmt.Fprintf(&b, ", comm %s (%.2fs)", pct(p.CommSec), p.CommSec)
		fmt.Fprintf(&b, ", wait %s (%.2fs)", pct(p.WaitSec), p.WaitSec)
		fmt.Fprintf(&b, ", recovery %s (%.2fs)", pct(p.RecoverySec), p.RecoverySec)
	} else {
		b.WriteString(", comm/wait/recovery: untraced")
	}
	return b.String()
}

// String renders the snapshot as a short multi-line report.
func (s Snapshot) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "wall %.2fs, %d events\n", s.WallSec, s.Events)
	fmt.Fprintf(&b, "net: %d RPCs (%d attempts), driver %.1f/%.1f MB out/in, executors %.1f/%.1f MB, servers %.1f/%.1f MB",
		s.Net.RPCCalls, s.Net.RPCAttempts,
		s.Net.DriverSentMB, s.Net.DriverRecvMB,
		s.Net.ExecutorSentMB, s.Net.ExecutorRecvMB,
		s.Net.ServerSentMB, s.Net.ServerRecvMB)
	if s.Net.MessagesLost > 0 {
		fmt.Fprintf(&b, ", %d lost", s.Net.MessagesLost)
	}
	b.WriteByte('\n')
	if s.Fusion.Batches > 0 || s.Fusion.FusedOps > 0 {
		fmt.Fprintf(&b, "fusion: %d batches carrying %d ops\n", s.Fusion.Batches, s.Fusion.FusedOps)
	}
	if s.Cache.Active() {
		fmt.Fprintf(&b, "cache: %.1f%% hit rate (%d hits, %d misses), %d revalidations (%d current), %.1f of %.1f MB pulled (%.1f saved)",
			100*s.Cache.HitRate(), s.Cache.Hits, s.Cache.Misses,
			s.Cache.Validations, s.Cache.ValidationHits,
			s.Cache.PulledMB, s.Cache.BaselineMB, s.Cache.SavedMB())
		if s.Cache.Evictions > 0 || s.Cache.EpochFences > 0 {
			fmt.Fprintf(&b, ", %d evictions, %d epoch fences", s.Cache.Evictions, s.Cache.EpochFences)
		}
		if s.Cache.CombinedPushes > 0 {
			fmt.Fprintf(&b, "; combined %d pushes into %d flushes (%.1f of %.1f MB)",
				s.Cache.CombinedPushes, s.Cache.Flushes, s.Cache.FlushedMB, s.Cache.FlushBaseMB)
		}
		b.WriteByte('\n')
	}
	if s.Consistency.Active() {
		fmt.Fprintf(&b, "consistency: %s policy, %d served / %d revalidated / %d hard-pulled (%.1f%% served)",
			s.Consistency.Policy, s.Consistency.ServedCached, s.Consistency.Revalidated,
			s.Consistency.HardPulled, 100*s.Consistency.ServeRate())
		if s.Consistency.Tightenings+s.Consistency.Relaxations > 0 {
			fmt.Fprintf(&b, "; bound %.4g after %d tightenings / %d relaxations",
				s.Consistency.EffectiveBound, s.Consistency.Tightenings, s.Consistency.Relaxations)
		}
		b.WriteByte('\n')
	}
	if s.Load.Active() {
		fmt.Fprintf(&b, "load: %d servers, imbalance %.2fx ops / %.2fx bytes (max/mean)\n",
			len(s.Load.Ops), s.Load.OpsImbalance(), s.Load.BytesImbalance())
	}
	if s.Migration.Active() {
		fmt.Fprintf(&b, "elastic: %d migrations (%d aborted), +%d/-%d servers, %.1f MB moved (%.1f bulk + %.1f delta), gate closed %.3fs\n",
			s.Migration.Migrations, s.Migration.Aborts,
			s.Migration.ServersAdded, s.Migration.ServersRemoved,
			s.Migration.MovedMB(), s.Migration.BulkBytes/1e6, s.Migration.DeltaBytes/1e6,
			s.Migration.GateClosedSec)
	}
	if s.Serve.Active() {
		fmt.Fprintf(&b, "serve: %d reads (%d values), %d snapshot reads (%d pins, %d fences)",
			s.Serve.Reads, s.Serve.ReadVals, s.Serve.SnapshotReads,
			s.Serve.SnapshotsPinned, s.Serve.SnapshotFences)
		if s.Serve.Admitted+s.Serve.ShedServe+s.Serve.ShedTrain > 0 {
			fmt.Fprintf(&b, "; admission: %d admitted (%d queued %.3fs, max depth %d), shed %d serve / %d train (%.1f%%)",
				s.Serve.Admitted, s.Serve.Delayed, s.Serve.QueueDelaySec, s.Serve.MaxQueueDepth,
				s.Serve.ShedServe, s.Serve.ShedTrain, 100*s.Serve.ShedRate())
		}
		b.WriteByte('\n')
	}
	if s.Recovery.ServerCrashes > 0 || s.Recovery.Recoveries > 0 {
		fmt.Fprintf(&b, "recovery: %d crashes, %d detected (mean %.2fs), %d recovered (mean %.2fs), %.1f MB restored\n",
			s.Recovery.ServerCrashes, s.Recovery.Detections, s.Recovery.MeanDetectLatency(),
			s.Recovery.Recoveries, s.Recovery.MeanRecoverySec(), s.Recovery.RestoreBytes/1e6)
	}
	fmt.Fprintf(&b, "phases: %s", s.Phases.Summary(s.WallSec))
	return b.String()
}

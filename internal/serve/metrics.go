package serve

import (
	"sync/atomic"
	"time"

	"borg/internal/obs"
)

// serveMetrics bundles the server's pre-resolved metric handles: every
// name/label lookup happens once here, at construction, so the writer
// loop's updates are bare atomic adds on struct fields — the
// allocation-free discipline the obs package is built around. A nil
// *serveMetrics disables instrumentation entirely (Config.MetricsOff,
// the benchmark control arm); every call site guards with one pointer
// test.
type serveMetrics struct {
	// Ingest-path series.
	queueWait *obs.Histogram // writer-observed wait from enqueue to handling
	batchSize *obs.Histogram // ops per applied batch
	deltaNs   *obs.Histogram // delta-computation phases per batch
	mutateNs  *obs.Histogram // mutate phases per batch
	publishNs *obs.Histogram // snapshot build + swap per publication
	flushNs   *obs.Histogram // flush-barrier service time (drain + publish)
	// freshnessNs is enqueue-to-visible of the OLDEST op an epoch covers:
	// one observation and no extra clock read per publication.
	freshnessNs *obs.Histogram
	inserts     *obs.Counter // applied tuple inserts
	deletes     *obs.Counter // applied tuple deletes
	rejected    *obs.Counter // ops rejected at validation (unknown rel, arity)
	applyErrs   *obs.Counter // batches that surfaced a maintenance error
	panics      *obs.Counter // panics contained on the writer goroutine
	epoch       *obs.Gauge   // published epoch sequence number
	recycled    *obs.Counter // publications into a reused epoch

	// Plan-layer series (the writer owns the plan state).
	replans  *obs.Counter   // completed plan rebuilds
	replanNs *obs.Histogram // rebuild duration (reingest included)
	drift    *obs.Gauge     // plan-drift ratio at last publication

	// base anchors the monotonic clock for the epoch-age gauge;
	// lastPub holds nanoseconds-since-base of the latest publication.
	base    time.Time
	lastPub atomic.Int64
}

// newServeMetrics registers the server's series in r under the given
// labels and resolves their handles. queueLen feeds the scrape-time
// queue-depth gauge.
func newServeMetrics(r *obs.Registry, labels obs.Labels, queueLen func() int) *serveMetrics {
	m := &serveMetrics{base: time.Now()}
	m.queueWait = r.Histogram("borg_serve_queue_wait_ns",
		"Nanoseconds an op waited in the ingest queue before the writer picked it up.", labels)
	m.batchSize = r.Histogram("borg_serve_batch_size",
		"Ops per applied batch.", labels)
	m.deltaNs = r.Histogram("borg_serve_apply_delta_ns",
		"Nanoseconds per batch in the read-only delta-computation phases.", labels)
	m.mutateNs = r.Histogram("borg_serve_apply_mutate_ns",
		"Nanoseconds per batch in the mutate phases.", labels)
	m.publishNs = r.Histogram("borg_serve_publish_ns",
		"Nanoseconds per snapshot publication (epoch arena build and swap).", labels)
	m.flushNs = r.Histogram("borg_serve_flush_ns",
		"Nanoseconds per flush barrier, from writer pickup to publication.", labels)
	m.freshnessNs = r.Histogram("borg_serve_freshness_ns",
		"Nanoseconds from the enqueue of the oldest op an epoch covers to that epoch's publication.", labels)
	m.inserts = r.Counter("borg_serve_inserts_total",
		"Applied tuple inserts (the insert half of an update counts).", labels)
	m.deletes = r.Counter("borg_serve_deletes_total",
		"Applied tuple deletes (the retraction half of an update counts).", labels)
	m.rejected = r.Counter("borg_serve_rejected_ops_total",
		"Ops rejected at validation time (unknown relation, arity mismatch).", labels)
	m.applyErrs = r.Counter("borg_serve_apply_errors_total",
		"Batches that surfaced a maintenance error (failed delete target, half-applied update).", labels)
	m.panics = r.Counter("borg_serve_writer_panics_total",
		"Panics contained on the writer goroutine; after one the server refuses every op.", labels)
	m.epoch = r.Gauge("borg_serve_epoch",
		"Published snapshot epoch sequence number.", labels)
	m.recycled = r.Counter("borg_serve_epochs_recycled_total",
		"Publications into a superseded epoch no reader pinned, reused instead of allocated.", labels)
	m.replans = r.Counter("borg_plan_replans_total",
		"Completed plan rebuilds (root changes; no-op replan requests do not count).", labels)
	m.replanNs = r.Histogram("borg_plan_replan_ns",
		"Nanoseconds per completed plan rebuild, live-row reingest included.", labels)
	m.drift = r.Gauge("borg_plan_drift",
		"Plan-drift ratio at the last publication: largest live relation cardinality over the root's.", labels)
	m.drift.Set(1)
	r.GaugeFunc("borg_serve_queue_depth",
		"Ops enqueued or applied but not yet covered by a published snapshot.", labels,
		func() float64 { return float64(queueLen()) })
	r.GaugeFunc("borg_serve_epoch_age_seconds",
		"Seconds since the last snapshot publication.", labels,
		func() float64 {
			return time.Duration(m.sinceBase() - m.lastPub.Load()).Seconds()
		})
	return m
}

// sinceBase returns monotonic nanoseconds since the metrics were
// created — the clock lastPub and the epoch-age gauge share.
func (m *serveMetrics) sinceBase() int64 { return int64(time.Since(m.base)) }

// markPublish stamps a publication for the epoch-age gauge.
//
//borg:noalloc
func (m *serveMetrics) markPublish() { m.lastPub.Store(m.sinceBase()) }

package serve

import "repro/internal/telemetry"

// Serving metrics, registered on the default telemetry registry so they
// appear on the server's own /metrics endpoint alongside the pipeline
// instruments.
var (
	mSessionsActive = telemetry.NewGauge("serve_sessions_active",
		"detection sessions currently resident in memory")
	mSessionsCreated = telemetry.NewCounter("serve_sessions_created_total",
		"detection sessions created over the server's lifetime")
	mSessionsRestored = telemetry.NewCounter("serve_sessions_restored_total",
		"detection sessions restored from spooled checkpoints")
	mSessionsEvicted = telemetry.NewCounter("serve_sessions_evicted_total",
		"idle detection sessions checkpointed to the spool and evicted")
	mQueueDepth = telemetry.NewGauge("serve_queue_depth_events",
		"events enqueued across all sessions awaiting scoring")
	mVerdictSeconds = telemetry.NewHistogram("serve_verdict_seconds",
		"latency from batch enqueue to scored verdicts", telemetry.DurationBuckets())
	mRejected = telemetry.NewCounterVec("serve_rejected_requests_total",
		"requests rejected by protective limits", "cause")
	mEventsIngested = telemetry.NewCounter("serve_events_ingested_total",
		"events accepted into session queues")
	mVerdictsTotal = telemetry.NewCounter("serve_verdicts_total",
		"window verdicts produced across all sessions")
	mModelReloads = telemetry.NewCounter("serve_model_reloads_total",
		"successful hot reloads of the model set")
	mHTTPSeconds = telemetry.NewHistogramVec("serve_http_seconds",
		"HTTP request latency by route", "route", telemetry.DurationBuckets())
	mQueueWaitSeconds = telemetry.NewHistogram("serve_queue_wait_seconds",
		"latency from batch admission to its turn", telemetry.DurationBuckets())
	mScoreSeconds = telemetry.NewHistogram("serve_score_seconds",
		"detector scoring time per batch", telemetry.DurationBuckets())
	mSessionsExported = telemetry.NewCounter("serve_sessions_exported_total",
		"sessions checkpoint-exported to another replica")
	mSessionsImported = telemetry.NewCounter("serve_sessions_imported_total",
		"sessions restored from another replica's checkpoint export")
)

package etl

// TracedPIDs and ProcessLog give the external tests the per-process
// view of a parsed file.
var (
	TracedPIDs = tracedPIDs
	ProcessLog = processLog
)

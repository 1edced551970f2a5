package core

// Hooks for the external tests in tune_test.go, which import
// internal/workloads (itself an importer of core).
var (
	CandidateText = (*Measurer).candidate
	TuneMeasured  = (*Measurer).tune
)

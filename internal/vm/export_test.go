package vm

// VecRuns reports the batches e's columnar tier has run.
func VecRuns(e *Engine) int64 { return e.vecRuns.Load() }

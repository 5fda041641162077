package measure

// DropJitterTables releases every jitter table e holds, for the external
// test that weighs them.
func DropJitterTables(e *Env) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, r := range e.interned {
		clear(r.jitter)
	}
}

// MetricMeasureRuns names the runs counter for the external tests.
const MetricMeasureRuns = metricMeasureRuns

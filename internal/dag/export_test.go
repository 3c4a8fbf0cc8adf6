package dag

// EnumerateSteps walks every assignment of up to maxRounds rounds with a
// no-op visitor and returns the enumerator's step count. It serves the
// work gates of package dag_test, which builds its applications with
// packages that import dag.
func (lg *LineGraph) EnumerateSteps(maxRounds int) int {
	return lg.enumerate(maxRounds, func([]int) bool { return true })
}

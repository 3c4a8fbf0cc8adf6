package dag

import "context"

// EnumerateSteps walks every assignment of up to maxRounds rounds with a
// no-op visitor and returns the enumerator's step count. It serves the
// work gates of package dag_test, which builds its applications with
// packages that import dag.
func (lg *LineGraph) EnumerateSteps(maxRounds int) int {
	return lg.enumerate(maxRounds, func([]int) bool { return true })
}

// CountSteps returns the number of recursive steps CountAssignments
// takes for the same budget, for the same work gates.
func (lg *LineGraph) CountSteps(maxRounds int) int {
	_, steps, _ := lg.count(context.Background(), maxRounds, maxCountMemo)
	return steps
}

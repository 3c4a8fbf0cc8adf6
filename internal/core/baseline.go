package core

import (
	"context"
	"fmt"

	"github.com/netdag/netdag/internal/dag"
)

// GlobalNTXBaseline schedules the application the way pre-NETDAG LWB
// deployments are configured: one network-wide N_TX shared by every flood
// (beacons and slots), chosen as the smallest value meeting every
// task-level constraint, with the canonical ASAP round assignment. It is
// the comparison point of the A2 ablation: NETDAG's per-flood χ tuning
// can spend retransmissions only where a constraint needs them, so it
// never reserves more bus time than this baseline at equal reliability.
func GlobalNTXBaseline(p *Problem) (*Schedule, error) {
	if err := p.normalize(); err != nil {
		return nil, err
	}
	lg, err := dag.NewLineGraph(p.App)
	if err != nil {
		return nil, err
	}
	assign := lg.EarliestAssignment()
	nMsgs := len(p.msgs)
	rounds := lg.MinRounds()

	for n := 1; n <= p.MaxNTX; n++ {
		if !p.globalNTXFeasible(assign, nMsgs, n) {
			continue
		}
		chi := make([]int, nMsgs+rounds)
		for i := range chi {
			chi[i] = n
		}
		return p.place(context.Background(), &placeTemplate{}, assign, chi, rounds, -1)
	}
	return nil, fmt.Errorf("%w: no global N_TX within %d..%d meets the constraints", ErrUnsat, p.MinNTX, p.MaxNTX)
}

// globalNTXFeasible checks the χ domain and every chiCon under a uniform
// χ = n, with the χ search's own tests: n is at least MinNTX and every
// constraint's window floor, and each constraint's deficit sum over its
// floods stays within its budget.
func (p *Problem) globalNTXFeasible(assign []int, nMsgs, n int) bool {
	if n < p.MinNTX {
		return false
	}
	marks := make([]bool, roundCount(assign))
	var floods []int
	for _, c := range p.chiCons {
		floods = predFloods(floods[:0], marks, c.msgs, assign, nMsgs)
		if n < c.floor || float64(len(floods))*p.defCol[n-1] > c.budget+chiEps {
			return false
		}
	}
	return true
}

package core

import (
	"context"
	"fmt"
	"math"

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
	msgs := p.App.Messages()
	nMsgs := len(msgs)
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
	return nil, fmt.Errorf("%w: no global N_TX within 1..%d meets the constraints", ErrUnsat, p.MaxNTX)
}

// globalNTXFeasible checks every task-level constraint under a uniform
// χ = n.
func (p *Problem) globalNTXFeasible(assign []int, nMsgs, n int) bool {
	marks := make([]bool, roundCount(assign))
	var floods []int
	switch p.Mode {
	case Soft:
		lam := p.SoftStat.SuccessProb(n)
		for id, target := range p.SoftCons {
			floods = predFloods(floods[:0], marks, p.ancestors[id], assign, nMsgs)
			if len(floods) == 0 || target <= 0 {
				continue
			}
			if target >= 1 {
				return false
			}
			if math.Pow(lam, float64(len(floods))) < target-chiEps {
				return false
			}
		}
		return true
	case WeaklyHard:
		g := p.WHStat.MissConstraint(n)
		for id, target := range p.WHCons {
			floods = predFloods(floods[:0], marks, p.ancestors[id], assign, nMsgs)
			if len(floods) == 0 || target.Trivial() {
				continue
			}
			if g.Window < target.Window {
				return false
			}
			if len(floods)*g.Misses > target.Misses {
				return false
			}
		}
		return true
	default:
		return false
	}
}

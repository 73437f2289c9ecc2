package main

import (
	"fmt"
	"math"
	"path/filepath"
)

// e2eSamples is what the untraced repetitions of a workload measured.
type e2eSamples struct {
	setupS   []float64
	roundsMS []float64
	// samples is local-training samples × E × K over all repetitions, and
	// roundS the summed round wall time they took.
	samples   float64
	roundS    float64
	acc, loss float64
	// repTails, when set, holds each repetition's round times separately:
	// round_ms_tail is then the median of the repetitions' tails.
	repTails [][]float64
}

func (s *e2eSamples) addRounds(ms []float64) {
	s.roundsMS = append(s.roundsMS, ms...)
	s.roundS += sum(ms) / 1e3
}

// emitE2E sets every end-to-end metric from the untraced samples. The
// tail percentile and its sample count go to stderr with the metrics.
func (c *runCtx) emitE2E(s e2eSamples) {
	o := c.out
	o.set("setup_s", median(s.setupS))
	o.set("round_ms_p50", median(s.roundsMS))
	groups := s.repTails
	if groups == nil {
		groups = [][]float64{s.roundsMS}
	}
	var tails []float64
	for _, ms := range groups {
		tl, ok := tailPercentile(ms)
		if !ok {
			o.check(fmt.Errorf("%d rounds measured, need more than %d", tl.Count, tailMinBeyond), "enough rounds for a tail percentile")
		}
		tails = append(tails, tl.Value)
		c.logf("round tail: p%d of %d rounds (%d beyond) = %.4g ms",
			tl.Percentile, tl.Count, tl.Count-nearestRank(tl.Percentile, tl.Count), tl.Value)
	}
	o.set("round_ms_tail", median(tails))
	c.logf("round_ms_tail is the median of %d tails; setup_s is the median of %d setups", len(tails), len(s.setupS))
	o.set("samples_per_s", s.samples/s.roundS)
	o.set("final_accuracy", s.acc)
	o.set("final_loss", s.loss)
	rss, err := peakRSSMB()
	o.check(err, "read peak RSS")
	o.set("peak_rss_mb", rss)
}

// fillInapplicable sets to 0 every per-layer metric whose layer this
// workload does not run and that no probe filled in, so every traced run
// emits the full ledger.
func fillInapplicable(o *outcome, workload string) {
	for _, m := range perLayer {
		if _, ok := o.metrics[m.Name]; ok || contains(m.On, workload) {
			continue
		}
		o.set(m.Name, 0)
	}
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// reconcileTolerance bounds how far the layer self-times of traced rounds
// may exceed their wall time. Self-times are wall-clock coverage (local
// training), or span sums of phases that run on the stepping goroutine;
// only a group aggregation overlapping another group's training can count
// twice, and it is a few milliseconds of a round.
const reconcileTolerance = 0.05

// reconcile sets the layer self-times of the timed rounds against their
// wall time. coverNS is each round's wall coverage of local training (nil
// when the program's local-training span is among the spans), spanNS the
// program's span sums over the rounds. The residual is the wall time no
// layer accounts for, and gap its size as a share of wall time: |self-times
// − wall| / wall over the run. A round whose local training outlasts it, or
// self-times that exceed the rounds' wall time, by more than
// reconcileTolerance mean a layer is counted twice, and fail.
func reconcile(wallNS, coverNS []int64, spanNS int64) (gap float64, residualNS int64, err error) {
	var total, covered int64
	over := 0.0
	for i, w := range wallNS {
		total += w
		if coverNS == nil {
			continue
		}
		covered += coverNS[i]
		if w > 0 {
			over = max(over, float64(coverNS[i]-w)/float64(w))
		}
	}
	residualNS = total - covered - spanNS
	if total > 0 {
		gap = math.Abs(float64(residualNS)) / float64(total)
		over = max(over, float64(-residualNS)/float64(total))
	}
	if over > reconcileTolerance {
		err = fmt.Errorf("layer self-times exceed round wall time by %.1f%% (tolerance %.0f%%)", 100*over, 100*reconcileTolerance)
	}
	return gap, residualNS, err
}

// traceFile is where a traced run dumps its spans.
func (c *runCtx) traceFile(workload string) string {
	return filepath.Join(c.outDir, fmt.Sprintf("trace-%s-seed%d.json", workload, c.seed))
}

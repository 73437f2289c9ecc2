package core

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/async"
	"repro/internal/compress"
	"repro/internal/cost"
	"repro/internal/grouping"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/sampling"
	"repro/internal/stats"
)

// Trainer runs Algorithm 1 one global round at a time. It holds every piece
// of cross-round state the one-shot Train loop kept in locals, which is what
// makes a run pausable: after any Step the trainer sits at a global-round
// boundary, ExportState captures that boundary completely, and
// NewTrainerResumed rebuilds a trainer whose remaining rounds are
// bit-for-bit identical to the uninterrupted run's.
//
// The determinism argument leans on two properties of the engine (PR 4):
// per-(seed, round, group, client) RNG streams are re-derived from the
// round index — stateless across rounds — and all reductions run in fixed
// order. The only RNG state that survives a round boundary is the
// sampling stream (two PCG words) and the parent stream, which is consumed
// exclusively by Split calls whose tags are pure functions of the round
// index, so resume replays them instead of serializing the parent.
type Trainer struct {
	sys   *System
	cfg   Config
	local LocalUpdater

	// rng is the parent stream: consumed only by Split(1) (formation),
	// Split(2) (sampling stream), and Split(100+t) at regroups.
	rng       *stats.RNG
	sampleRng *stats.RNG
	// sampler carries the O(groups) selection scratch across rounds, so a
	// steady-state Step allocates O(selected), not O(groups).
	sampler sampling.Sampler

	groups    []*grouping.Group
	probs     []float64
	selCtrs   []*metrics.Counter
	roundsCtr *metrics.Counter

	totalSamples int
	modelBytes   int

	global       *nn.Sequential
	globalParams []float64
	next         []float64

	acct        *cost.Accountant
	res         *Result
	compressors *compressorPool
	eng         *engine
	spaces      []*groupSpace
	// reports and syncTicks are the async step path's per-selection scratch,
	// aligned with spaces; adaptive is the online p_g re-estimator (nil for
	// static sampling).
	reports   []*asyncGroupReport
	syncTicks []int64
	adaptive  *sampling.Adaptive
	// aggNodes is the global aggregation's tree-node scratch, reused across
	// rounds so the steady-state Step stays allocation-free.
	aggNodes [][]float64

	// lastSelected counts the clients in the most recent round's selected
	// groups — the set O(selected)-memory claims are measured against.
	lastSelected int

	t int
}

// NewTrainer prepares a run: group formation, sampling vector, model
// initialization, cost accountant — everything Train did before its round
// loop, with the identical parent-RNG consumption order.
func NewTrainer(sys *System, cfg Config) *Trainer {
	validate(sys, cfg)
	tr := &Trainer{sys: sys, cfg: cfg}
	tr.local = cfg.Local
	if tr.local == nil {
		tr.local = SGDUpdater{}
	}
	tr.rng = stats.NewRNG(cfg.Seed)

	// Lines 2–3: group formation at every edge; line 4: sampling vector.
	tr.groups = grouping.FormAll(cfg.Grouping, sys.Edges, sys.Classes, tr.rng.Split(1))
	tr.probs = sampling.Probabilities(tr.groups, cfg.Sampling)
	tr.selCtrs = publishSampling(cfg.Metrics, tr.groups, tr.probs)
	tr.roundsCtr = cfg.Metrics.Counter("fel_core_rounds_total")

	for _, c := range sys.Clients {
		tr.totalSamples += c.NumSamples()
	}

	tr.global = sys.NewModel(sys.ModelSeed)
	tr.globalParams = tr.global.ParamVector()
	if cfg.InitParams != nil {
		if len(cfg.InitParams) != len(tr.globalParams) {
			panic(fmt.Sprintf("fel: InitParams length %d, model has %d", len(cfg.InitParams), len(tr.globalParams)))
		}
		copy(tr.globalParams, cfg.InitParams)
	}
	tr.acct = cost.NewAccountant(cfg.CostProfile, cfg.CostOps)
	tr.res = &Result{Participation: make(map[int]int)}
	tr.modelBytes = cfg.ModelBytes
	if tr.modelBytes <= 0 {
		tr.modelBytes = 8 * len(tr.globalParams)
	}
	if cfg.NewCompressor != nil {
		tr.compressors = &compressorPool{factory: cfg.NewCompressor, byClient: make(map[int]compress.Compressor)}
	}
	tr.eng = newEngine(sys, cfg, tr.local, tr.compressors)
	tr.next = make([]float64, len(tr.globalParams))
	tr.sampleRng = tr.rng.Split(2)
	if cfg.Async.Mode != async.Sync {
		tr.res.ArrivalLog = &async.Log{}
	}
	if cfg.AdaptiveSampling != nil {
		tr.adaptive = sampling.NewAdaptive(*cfg.AdaptiveSampling, len(tr.groups))
	}
	return tr
}

// Round returns the index of the next global round Step would run, i.e. the
// number of rounds executed so far.
func (tr *Trainer) Round() int { return tr.t }

// SelectedClients returns the number of clients in the groups the most
// recent Step sampled (0 before the first Step). At scale this — not the
// population — is what a round's working memory tracks; the popscale
// benchmark records it next to the per-round allocation numbers.
func (tr *Trainer) SelectedClients() int { return tr.lastSelected }

// Params returns the live global parameter vector. Callers must treat it as
// read-only; it is the buffer the next Step aggregates into.
func (tr *Trainer) Params() []float64 { return tr.globalParams }

// Done reports whether the run is over: all GlobalRounds executed, or the
// cost budget exhausted (the same check the Train loop made at the top of
// each iteration).
func (tr *Trainer) Done() bool {
	if tr.t >= tr.cfg.GlobalRounds {
		return true
	}
	return tr.cfg.CostBudget > 0 && tr.acct.Total() >= tr.cfg.CostBudget
}

// Step executes one global round (Alg. 1 lines 6–15): optional regrouping,
// group sampling, parallel group training, weighted global aggregation, and
// cost/participation/wall-clock accounting. It must not be called after
// Done returns true. cfg.OnRound, when set, fires before Step returns.
func (tr *Trainer) Step() RoundRecord {
	if tr.Done() {
		panic("fel: Trainer.Step called after Done")
	}
	cfg, sys, res, t := tr.cfg, tr.sys, tr.res, tr.t

	// Optional regrouping (Sec. 6.1): the random first pick in Alg. 2
	// makes each regroup explore a different formation.
	if cfg.RegroupEvery > 0 && t > 0 && t%cfg.RegroupEvery == 0 {
		tr.groups = grouping.FormAll(cfg.Grouping, sys.Edges, sys.Classes, tr.rng.Split(uint64(100+t)))
		tr.probs = sampling.Probabilities(tr.groups, cfg.Sampling)
		tr.selCtrs = publishSampling(cfg.Metrics, tr.groups, tr.probs)
		if tr.adaptive != nil {
			// The EWMAs are keyed by group identity; a new formation starts
			// the estimator over from the fresh CoV prior.
			tr.adaptive.Reset(len(tr.groups))
		}
	}
	groups, probs := tr.groups, tr.probs
	if tr.adaptive != nil {
		// Round 0 (or right after a regroup) this returns the CoV-derived
		// base vector verbatim; afterwards, the EWMA-adapted distribution.
		// Both sampling and the estimator weights below consume the same
		// vector, keeping the global estimator consistent with how groups
		// were actually drawn.
		probs = tr.adaptive.Mix(tr.probs)
	}

	// Line 6: sample S_t.
	s := cfg.SampleGroups
	if s > len(groups) {
		s = len(groups)
	}
	selected := tr.sampler.Sample(tr.sampleRng, probs, s)
	tr.roundsCtr.Inc()
	tr.lastSelected = 0
	for _, gi := range selected {
		tr.selCtrs[gi].Inc()
		tr.lastSelected += groups[gi].Size()
	}

	// Lines 7–14: each selected group trains in parallel. The engine
	// hands back pooled spaces, consumed by the global aggregation below
	// and then recycled.
	tr.spaces = tr.spaces[:0]
	tr.reports = tr.reports[:0]
	tr.syncTicks = tr.syncTicks[:0]
	for range selected {
		tr.spaces = append(tr.spaces, nil)
		tr.reports = append(tr.reports, nil)
		tr.syncTicks = append(tr.syncTicks, 0)
	}
	spaces, reports, syncTicks := tr.spaces, tr.reports, tr.syncTicks
	parallelEach(len(selected), cfg.MaxParallel, func(si int) {
		g := groups[selected[si]]
		switch cfg.Async.Mode {
		case async.Buffered:
			spaces[si], reports[si] = tr.eng.runGroupBuffered(g, tr.globalParams, t)
		case async.SemiSync:
			spaces[si], reports[si] = tr.eng.runGroupSemiSync(g, tr.globalParams, t)
		default:
			spaces[si] = tr.eng.runGroup(g, tr.globalParams, t)
			// Observational: price the synchronous barrier on the same
			// logical clock (identical per-dispatch draws) so tick
			// comparisons against the async modes are apples-to-apples.
			syncTicks[si] = tr.eng.syncGroupTicks(g, t)
		}
	})
	for _, sp := range spaces {
		res.Dropouts += sp.drops
		res.UplinkBytes += sp.bytes
		tr.eng.dropsCtr.Add(int64(sp.drops))
	}
	// A round's logical time is the slowest selected group (the cloud
	// barrier); the per-group event logs merge in selection order, which is
	// deterministic however the groups were scheduled above.
	roundTicks := int64(0)
	for si := range selected {
		ticks := syncTicks[si]
		if rep := reports[si]; rep != nil {
			ticks = rep.ticks
			res.Carryovers += rep.carryovers
			res.LateDrops += rep.lateDrops
			res.ArrivalLog.Append(rep.events...)
		}
		if ticks > roundTicks {
			roundTicks = ticks
		}
	}
	res.LogicalTicks += roundTicks
	// The gauge is last-writer-wins, so it is written here, after the
	// fan-in, and never from inside the per-group runs above.
	if tr.eng.asyncRoundTicks != nil {
		tr.eng.asyncRoundTicks.Set(float64(roundTicks))
	}
	if tr.adaptive != nil {
		// Observe before the global fold below: treeFold consumes the
		// sp.group buffers in place.
		for si, gi := range selected {
			tr.adaptive.Observe(gi, updateNorm(spaces[si].group, tr.globalParams))
		}
	}

	// Line 15: global aggregation into the reused double buffer.
	aggSpan := cfg.Metrics.Start("fel_core_global_aggregate_seconds")
	weights := sampling.Weights(groups, selected, probs, tr.totalSamples, cfg.Weights)
	tr.next = growFloats(tr.next, len(tr.globalParams))
	if cap(tr.aggNodes) < len(spaces) {
		tr.aggNodes = make([][]float64, len(spaces))
	}
	aggregateGlobal(weights, spaces, tr.next, tr.aggNodes[:len(spaces)], tr.eng.max)
	// The unbiased estimator targets the full-population average; the
	// weights may not sum to 1 in-sample, which is the point (Eq. 4).
	tr.globalParams, tr.next = tr.next, tr.globalParams
	for _, sp := range spaces {
		tr.eng.putSpace(sp)
	}
	aggSpan.End()

	if gf, ok := tr.local.(globalRoundFinisher); ok {
		gf.FinishGlobalRound()
	}

	// Cost, participation, and wall-clock accounting (Eq. 5).
	sel := make([][]int, len(selected))
	covSum := 0.0
	edgeGroupTimes := map[int][]float64{}
	for si, gi := range selected {
		g := groups[gi]
		counts := make([]int, g.Size())
		computes := make([]float64, g.Size())
		for i, c := range g.Clients {
			counts[i] = c.NumSamples()
			computes[i] = float64(cfg.LocalEpochs)*cfg.CostProfile.Training(c.NumSamples()) +
				cfg.CostProfile.GroupOverhead(g.Size(), cfg.CostOps)
			res.Participation[c.ID]++
		}
		sel[si] = counts
		covSum += g.CoV()
		if cfg.Topology != nil {
			edgeGroupTimes[g.Edge] = append(edgeGroupTimes[g.Edge],
				cfg.Topology.GroupRoundTime(tr.modelBytes, computes))
		}
	}
	tr.acct.GlobalRound(sel, cfg.GroupRounds, cfg.LocalEpochs)
	if cfg.Topology != nil {
		// Iterate edges in sorted order: GlobalRoundTime folds per-edge
		// times into a float sum, and map order would leak into WallClock.
		edges := make([]int, 0, len(edgeGroupTimes))
		for e := range edgeGroupTimes {
			edges = append(edges, e)
		}
		sort.Ints(edges)
		times := make([][]float64, 0, len(edges))
		for _, e := range edges {
			times = append(times, edgeGroupTimes[e])
		}
		res.WallClock += cfg.Topology.GlobalRoundTime(tr.modelBytes, cfg.GroupRounds, times)
	}

	rec := RoundRecord{
		Round:          t,
		Cost:           tr.acct.Total(),
		AvgSelectedCoV: covSum / float64(len(selected)),
	}
	evalNow := cfg.EvalEvery <= 1 || t%cfg.EvalEvery == 0 || t == cfg.GlobalRounds-1
	if evalNow {
		evalSpan := cfg.Metrics.Start("fel_core_eval_seconds")
		tr.global.SetParamVector(tr.globalParams)
		rec.Accuracy, rec.Loss = Evaluate(tr.global, sys.Test, 0)
		evalSpan.End()
	} else {
		rec.Accuracy, rec.Loss = -1, -1
	}
	res.Records = append(res.Records, rec)
	res.RoundsRun = t + 1
	tr.t = t + 1
	if cfg.OnRound != nil {
		cfg.OnRound(rec)
	}
	return rec
}

// updateNorm is ‖g − base‖₂, the observed group update magnitude the
// adaptive sampler treats as utility evidence.
func updateNorm(g, base []float64) float64 {
	s := 0.0
	for i := range g {
		d := g[i] - base[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// Finish runs the final evaluation and seals the Result. The trainer must
// not be stepped afterwards.
func (tr *Trainer) Finish() *Result {
	tr.global.SetParamVector(tr.globalParams)
	res := tr.res
	res.FinalAccuracy, res.FinalLoss = Evaluate(tr.global, tr.sys.Test, 0)
	res.Groups = tr.groups
	res.Probs = tr.probs
	res.TotalCost = tr.acct.Total()
	res.Params = tr.globalParams
	return res
}

// TrainerState is a complete snapshot of a Trainer at a global-round
// boundary. Everything a resumed run needs that cannot be re-derived from
// (System, Config) is here: the global parameters, the sampling stream's
// PCG words, the cost components, the accumulated Result accounting, and —
// when the local updater is SCAFFOLD — the control variates. Group
// formation is deliberately absent: it is replayed from the seed (including
// every regroup before Round), which keeps the snapshot O(model), not
// O(clients × model).
type TrainerState struct {
	// Round is the next global round to run (= rounds already executed).
	Round int
	// Params is the global parameter vector at the boundary.
	Params []float64
	// SampleHi, SampleLo are the sampling stream's PCG state words.
	SampleHi, SampleLo uint64
	// CostTraining and CostGroupOps are the accountant's components.
	CostTraining, CostGroupOps float64
	// Dropouts, UplinkBytes, WallClock mirror the Result accumulators.
	Dropouts    int
	UplinkBytes int64
	WallClock   float64
	// Participation maps client ID to rounds participated.
	Participation map[int]int
	// Records is the per-round history so far.
	Records []RoundRecord
	// Scaffold is non-nil when the run trains with SCAFFOLD.
	Scaffold *ScaffoldCheckpoint
	// AsyncEvents is the cumulative arrival log in async modes (nil for
	// sync runs); LogicalTicks, Carryovers, and LateDrops mirror the
	// Result accumulators. Restoring the log on resume is what makes a
	// resumed run's complete log byte-identical to the uninterrupted one.
	AsyncEvents  []async.Event
	LogicalTicks int64
	Carryovers   int
	LateDrops    int
	// Adaptive is non-nil when the run samples adaptively: the EWMA
	// utilities and seen flags at the boundary.
	Adaptive *sampling.AdaptiveState
}

// ExportState captures the trainer's state at the current round boundary.
// Call it only between Steps (or before the first / after the last). It
// fails for runs with a compressor configured: per-client error-feedback
// residuals live inside the compressor implementations and have no
// serialization surface.
func (tr *Trainer) ExportState() (*TrainerState, error) {
	if tr.cfg.NewCompressor != nil {
		return nil, errors.New("core: cannot checkpoint a run with NewCompressor set (per-client residual state is not serializable)")
	}
	hi, lo := tr.sampleRng.State()
	st := &TrainerState{
		Round:         tr.t,
		Params:        append([]float64(nil), tr.globalParams...),
		SampleHi:      hi,
		SampleLo:      lo,
		CostTraining:  tr.acct.Training(),
		CostGroupOps:  tr.acct.GroupOps(),
		Dropouts:      tr.res.Dropouts,
		UplinkBytes:   tr.res.UplinkBytes,
		WallClock:     tr.res.WallClock,
		Participation: make(map[int]int, len(tr.res.Participation)),
		Records:       append([]RoundRecord(nil), tr.res.Records...),
	}
	for id, n := range tr.res.Participation {
		st.Participation[id] = n
	}
	if sc, ok := tr.local.(*ScaffoldUpdater); ok {
		st.Scaffold = sc.ExportState()
	}
	st.LogicalTicks = tr.res.LogicalTicks
	st.Carryovers = tr.res.Carryovers
	st.LateDrops = tr.res.LateDrops
	if tr.res.ArrivalLog != nil {
		st.AsyncEvents = append([]async.Event(nil), tr.res.ArrivalLog.Events()...)
	}
	if tr.adaptive != nil {
		ast := tr.adaptive.Export()
		st.Adaptive = &ast
	}
	return st, nil
}

// NewTrainerResumed rebuilds a trainer from a snapshot taken by
// ExportState under the same (System, Config). The parent RNG is replayed —
// formation split, sampling split, and every regroup split up to the
// snapshot round — so the stream positions match an uninterrupted run, then
// the sampling stream is overwritten with the serialized PCG words. The
// remaining rounds are bit-identical to the run the snapshot came from.
//
// When the snapshot carries SCAFFOLD state, cfg.Local must be a fresh
// *ScaffoldUpdater for the variates to be restored into.
func NewTrainerResumed(sys *System, cfg Config, st *TrainerState) (*Trainer, error) {
	if cfg.NewCompressor != nil {
		return nil, errors.New("core: cannot resume a run with NewCompressor set")
	}
	tr := NewTrainer(sys, cfg)
	if len(st.Params) != len(tr.globalParams) {
		return nil, fmt.Errorf("core: snapshot has %d params, model has %d", len(st.Params), len(tr.globalParams))
	}
	if st.Round > cfg.GlobalRounds {
		return nil, fmt.Errorf("core: snapshot round %d exceeds GlobalRounds %d", st.Round, cfg.GlobalRounds)
	}

	// Replay the regroups the original run performed before the snapshot,
	// consuming the parent stream exactly as Step would have.
	for r := 1; r < st.Round; r++ {
		if cfg.RegroupEvery > 0 && r%cfg.RegroupEvery == 0 {
			tr.groups = grouping.FormAll(cfg.Grouping, sys.Edges, sys.Classes, tr.rng.Split(uint64(100+r)))
			tr.probs = sampling.Probabilities(tr.groups, cfg.Sampling)
			tr.selCtrs = publishSampling(cfg.Metrics, tr.groups, tr.probs)
		}
	}
	tr.sampleRng.SetState(st.SampleHi, st.SampleLo)

	tr.t = st.Round
	copy(tr.globalParams, st.Params)
	tr.acct.Restore(st.CostTraining, st.CostGroupOps)
	tr.res.Dropouts = st.Dropouts
	tr.res.UplinkBytes = st.UplinkBytes
	tr.res.WallClock = st.WallClock
	tr.res.RoundsRun = st.Round
	tr.res.Records = append([]RoundRecord(nil), st.Records...)
	for id, n := range st.Participation {
		tr.res.Participation[id] = n
	}
	if st.Scaffold != nil {
		sc, ok := tr.local.(*ScaffoldUpdater)
		if !ok {
			return nil, errors.New("core: snapshot carries SCAFFOLD state but cfg.Local is not *ScaffoldUpdater")
		}
		sc.RestoreState(st.Scaffold)
	}
	tr.res.LogicalTicks = st.LogicalTicks
	tr.res.Carryovers = st.Carryovers
	tr.res.LateDrops = st.LateDrops
	if len(st.AsyncEvents) > 0 {
		if tr.res.ArrivalLog == nil {
			return nil, errors.New("core: snapshot carries an arrival log but the config is synchronous")
		}
		tr.res.ArrivalLog.Append(st.AsyncEvents...)
	}
	if st.Adaptive != nil {
		if tr.adaptive == nil {
			return nil, errors.New("core: snapshot carries adaptive-sampling state but cfg.AdaptiveSampling is nil")
		}
		if err := tr.adaptive.Restore(*st.Adaptive); err != nil {
			return nil, err
		}
	}
	return tr, nil
}

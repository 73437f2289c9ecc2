package main

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/data"
	"repro/internal/grouping"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/sampling"
	"repro/internal/stats"
	"repro/internal/tensor"
)

// trainerWorkload is an in-process synchronous Alg. 1 run driven through
// core.Trainer: kernel-train and million-pop. One repetition builds the
// system, constructs the trainer (setup), steps a fixed number of rounds
// and finishes; the fixed round count keeps final accuracy and parameters
// a pure function of the seed, so every repetition must end bit-identical.
type trainerWorkload struct {
	name    string
	rounds  int
	minReps int
	// setups is how many extra set-ups (system build and NewTrainer, no
	// rounds) a run times for setup_s, when set-up is cheap next to a
	// repetition.
	setups  int
	virtual bool
	system  func(seed uint64) core.SystemConfig
	config  func(seed uint64) core.Config
}

// taskSeed fixes the synthetic task — class prototypes and the feature
// noise they are drawn with — so that a workload is one learning problem.
// The workload seed draws everything the program is handed on top of it:
// the partition of samples over clients, formation, sampling and SGD order.
// Seeds then move final loss by the spread of partitions, not of tasks.
const taskSeed = 2024

// maxParallel bounds the engine's worker pool by the processors this
// process may use.
func maxParallel() int {
	return min(runtime.GOMAXPROCS(0), runtime.NumCPU())
}

var kernelTrain = trainerWorkload{
	name: wKernel, rounds: 15, minReps: 2, setups: 8,
	system: func(seed uint64) core.SystemConfig {
		gen := data.FlatConfig(10, 512, taskSeed)
		gen.Noise = 1.5
		return core.SystemConfig{
			Generator: gen,
			Partition: data.PartitionConfig{
				NumClients: 24, Alpha: 0.3,
				MinSamples: 96, MaxSamples: 96, MeanSamples: 96, StdSamples: 1,
				Seed: seed + 101,
			},
			NumEdges: 2,
			TestSize: 1024,
			NewModel: func(ms uint64) *nn.Sequential {
				return nn.NewMLP(512, []int{512, 512}, 10, ms)
			},
			ModelSeed: 7,
		}
	},
	config: func(seed uint64) core.Config {
		return core.Config{
			// A small step keeps 15 rounds short of convergence, where final
			// loss varies little with the seed.
			GroupRounds: 1, LocalEpochs: 1, BatchSize: 96, LR: 0.005,
			SampleGroups: 2,
			// No CoV target: Alg. 2 closes every group at MinGS, so each
			// round trains 2 groups × 3 clients × one 96-sample batch
			// whatever the seed.
			Grouping:    grouping.CoVGrouping{Config: grouping.Config{MinGS: 3, MergeLeftover: true}},
			Sampling:    sampling.ESRCoV,
			Weights:     sampling.Biased,
			Seed:        seed,
			CostProfile: cost.CIFARProfile(),
			CostOps:     cost.DefaultOps(),
		}
	},
}

var millionPop = trainerWorkload{
	name: wMillion, rounds: 50, minReps: 2, virtual: true,
	system: func(seed uint64) core.SystemConfig {
		gen := data.FlatConfig(10, 32, taskSeed)
		gen.Noise = 1.2
		return core.SystemConfig{
			Generator: gen,
			Partition: data.PartitionConfig{
				NumClients: 1_000_000, Alpha: 0.5,
				MinSamples: 20, MaxSamples: 200, MeanSamples: 110, StdSamples: 45,
				Seed: seed + 101,
			},
			NumEdges: 800,
			TestSize: 4096,
			NewModel: func(ms uint64) *nn.Sequential {
				return nn.NewMLP(32, []int{32}, 10, ms)
			},
			ModelSeed: 7,
		}
	},
	config: func(seed uint64) core.Config {
		return core.Config{
			// 64 groups a round make each round ~200 ms of client work
			// around the O(groups) sampling pass: a few-ms round would
			// measure the host's scheduling noise instead.
			GroupRounds: 1, LocalEpochs: 1, BatchSize: 32, LR: 0.05,
			SampleGroups: 64,
			Grouping:     grouping.CoVGrouping{Config: grouping.Config{MinGS: 5, MaxCoV: 0.5, MergeLeftover: true}},
			Sampling:     sampling.ESRCoV,
			Weights:      sampling.Biased,
			Seed:         seed,
			CostProfile:  cost.CIFARProfile(),
			CostOps:      cost.DefaultOps(),
		}
	},
}

// trainerRep is what one repetition leaves behind.
type trainerRep struct {
	setupS     float64
	roundsMS   []float64
	samples    float64
	acc, loss  float64
	params     []float64
	inputsHash uint64
	clients    int
	groups     []*grouping.Group
	probs      []float64

	err error

	// Traced repetitions only.
	layers *trainerLayers
}

// trainerLayers is the traced repetition's per-layer raw data.
type trainerLayers struct {
	buildS, heapMB     float64
	formS              float64
	localCoverNS       []int64 // per round, wall coverage of local training
	localBusyNS        int64
	localCalls         []localCall    // every timed round's local-training calls
	reg                registryTotals // what the timed rounds added to the registry
	allocs, allocBytes uint64
	selected           int
	state              *core.TrainerState
	sys                *core.System
	cfg                core.Config
}

func (w trainerWorkload) build(seed uint64) *core.System {
	if w.virtual {
		return core.NewVirtualSystem(w.system(seed))
	}
	return core.NewSystem(w.system(seed))
}

// runConfig completes the workload config for one repetition. A repetition
// steps a warm-up round and then the timed rounds; GlobalRounds is one past
// them and EvalEvery past both, so the test set is scored only by the
// warm-up round (round 0 always evaluates) and by Finish.
func (w trainerWorkload) runConfig(seed uint64) core.Config {
	cfg := w.config(seed)
	cfg.GlobalRounds = w.rounds + 2
	cfg.EvalEvery = w.rounds + 3
	cfg.MaxParallel = maxParallel()
	return cfg
}

// rep runs one untraced repetition.
func (w trainerWorkload) rep(seed uint64) trainerRep {
	cfg := w.runConfig(seed)
	t0 := time.Now()
	sys := w.build(seed)
	tr := core.NewTrainer(sys, cfg)
	out := trainerRep{setupS: time.Since(t0).Seconds()}
	warm, err := warmUp(tr, sys, cfg)
	for r := 0; r < w.rounds; r++ {
		s := time.Now()
		tr.Step()
		out.roundsMS = append(out.roundsMS, msSince(s))
	}
	out.finish(sys, cfg, tr.Finish())
	out.samples -= warm
	out.err = err
	return out
}

// warmUp steps round 0 outside the timings — it is the round that scores
// the test set — and returns the local-training samples it processed, read
// from the trainer's exported participation, so that samples_per_s counts
// only the timed rounds.
func warmUp(tr *core.Trainer, sys *core.System, cfg core.Config) (float64, error) {
	tr.Step()
	st, err := tr.ExportState()
	if err != nil {
		return 0, fmt.Errorf("export the warm-up round's state: %w", err)
	}
	return participationSamples(sys.Clients, st.Participation, cfg.LocalEpochs*cfg.GroupRounds), nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

func msToNS(ms []float64) []int64 {
	ns := make([]int64, len(ms))
	for i, v := range ms {
		ns[i] = int64(v * 1e6)
	}
	return ns
}

// tracedRep runs the traced repetition: the program's metric registry, a
// timing LocalUpdater around SGD and a timing grouping.Algorithm around
// CoV-Grouping, spans around every call, and allocation counts per Step.
func (w trainerWorkload) tracedRep(seed uint64, rec *recorder) trainerRep {
	cfg := w.runConfig(seed)
	lay := &trainerLayers{}
	reg := metrics.New()
	cfg.Metrics = reg
	tl := &timedLocal{inner: cfg.Local, rec: rec}
	if tl.inner == nil {
		tl.inner = core.SGDUpdater{}
	}
	cfg.Local = tl
	cfg.Grouping = &timedGrouping{inner: cfg.Grouping, rec: rec}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	b := rec.begin("data.build")
	sys := w.build(seed)
	lay.buildS = rec.end(b).Seconds()
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	lay.heapMB = float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / (1 << 20)
	nt := rec.begin("core.NewTrainer")
	rec.enter(nt)
	tr := core.NewTrainer(sys, cfg)
	rec.leave()
	out := trainerRep{setupS: lay.buildS + rec.end(nt).Seconds(), layers: lay}
	forms := rec.children(nt, "grouping.Form")
	lay.formS = float64(coverage(forms)) / 1e9

	warm, err := warmUp(tr, sys, cfg)
	tl.reset()
	before0, err0 := readRegistry(reg)
	out.err = errors.Join(err, err0)
	for r := 0; r < w.rounds; r++ {
		runtime.ReadMemStats(&before)
		id := rec.begin("core.Trainer.Step")
		rec.enter(id)
		tr.Step()
		rec.leave()
		d := rec.end(id)
		runtime.ReadMemStats(&after)
		out.roundsMS = append(out.roundsMS, float64(d.Nanoseconds())/1e6)
		lay.allocs += after.Mallocs - before.Mallocs
		lay.allocBytes += after.TotalAlloc - before.TotalAlloc
		lay.selected += tr.SelectedClients()
		local := rec.children(id, "core.LocalUpdater.LocalTrain")
		lay.localCoverNS = append(lay.localCoverNS, coverage(local))
		lay.localBusyNS += busy(local)
	}
	after0, err := readRegistry(reg)
	out.err = errors.Join(out.err, err)
	lay.reg = after0.sub(before0)
	fin := rec.begin("core.Trainer.Finish")
	res := tr.Finish()
	rec.end(fin)
	if st, err := tr.ExportState(); err == nil {
		lay.state = st
	}
	lay.localCalls = tl.calls()
	lay.sys, lay.cfg = sys, cfg
	out.finish(sys, cfg, res)
	out.samples -= warm
	return out
}

// roundSpans are the program's span histograms that time parts of a
// trainer round outside local training.
var roundSpans = []string{"fel_core_group_aggregate_seconds", "fel_core_global_aggregate_seconds", "fel_core_eval_seconds"}

// spanNS sums the named span histograms of t, in nanoseconds.
func (t registryTotals) spanNS(names ...string) int64 {
	s := 0.0
	for _, name := range names {
		s += t.sums[name]
	}
	return int64(s * 1e9)
}

// finish records what every repetition reports from the trainer's result.
func (out *trainerRep) finish(sys *core.System, cfg core.Config, res *core.Result) {
	out.acc, out.loss = res.FinalAccuracy, res.FinalLoss
	out.params = append([]float64(nil), res.Params...)
	out.groups, out.probs = res.Groups, res.Probs
	out.clients = len(sys.Clients)
	out.inputsHash = inputsHash(sys.Clients, res.Groups)
	out.samples = participationSamples(sys.Clients, res.Participation, cfg.LocalEpochs*cfg.GroupRounds)
}

// participationSamples totals the local-training samples a run processed:
// for each client, the global rounds it trained in × its samples × E·K.
func participationSamples(clients []*data.Client, part map[int]int, epochs int) float64 {
	var byID map[int]*data.Client
	total := 0
	for id, rounds := range part {
		var c *data.Client
		if id >= 0 && id < len(clients) && clients[id].ID == id {
			c = clients[id]
		} else {
			if byID == nil {
				byID = make(map[int]*data.Client, len(clients))
				for _, cl := range clients {
					byID[cl.ID] = cl
				}
			}
			c = byID[id]
		}
		if c != nil {
			total += rounds * c.N * epochs
		}
	}
	return float64(total)
}

// timedLocal is the traced run's LocalUpdater: it records a span around
// every client's local training and delegates unchanged, so the trained
// bits are the inner updater's.
type timedLocal struct {
	inner core.LocalUpdater
	rec   *recorder

	mu  sync.Mutex
	log []localCall
}

// localCall is one client's local training: who trained on how many samples.
type localCall struct{ client, n int }

func (t *timedLocal) Name() string { return t.inner.Name() }

func (t *timedLocal) LocalTrain(model *nn.Sequential, x *tensor.Tensor, y []int, ctx core.LocalContext) {
	id := t.rec.begin("core.LocalUpdater.LocalTrain")
	t.inner.LocalTrain(model, x, y, ctx)
	t.rec.end(id)
	t.mu.Lock()
	t.log = append(t.log, localCall{ctx.ClientID, x.Shape[0]})
	t.mu.Unlock()
}

// calls returns every call since the last reset, in completion order.
func (t *timedLocal) calls() []localCall {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]localCall(nil), t.log...)
}

func (t *timedLocal) reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.log = nil
}

// timedGrouping is the traced run's grouping.Algorithm: a span around each
// edge's formation, delegating unchanged.
type timedGrouping struct {
	inner grouping.Algorithm
	rec   *recorder
}

func (t *timedGrouping) Name() string { return t.inner.Name() }

func (t *timedGrouping) Form(clients []*data.Client, classes, edge, firstID int, rng *stats.RNG) []*grouping.Group {
	id := t.rec.begin("grouping.Form")
	g := t.inner.Form(clients, classes, edge, firstID, rng)
	t.rec.end(id)
	return g
}

// checkFormation verifies that groups cover every one of n clients exactly
// once.
func checkFormation(groups []*grouping.Group, n int) error {
	seen := make([]bool, n)
	covered := 0
	for _, g := range groups {
		for _, c := range g.Clients {
			if c.ID < 0 || c.ID >= n {
				return fmt.Errorf("group %d holds client %d outside [0,%d)", g.ID, c.ID, n)
			}
			if seen[c.ID] {
				return fmt.Errorf("client %d is in more than one group", c.ID)
			}
			seen[c.ID] = true
			covered++
		}
	}
	if covered != n {
		return fmt.Errorf("groups cover %d of %d clients", covered, n)
	}
	return nil
}

// run measures the workload: untraced repetitions until the time budget is
// spent (at least minReps), or the traced ledger.
func (w trainerWorkload) run(c *runCtx) {
	if c.trace {
		w.runTraced(c)
		return
	}
	var s e2eSamples
	var params []float64
	var hash uint64
	start := time.Now()
	for i := 0; i < w.setups; i++ {
		s.setupS = append(s.setupS, w.setupOnly(c.seed))
	}
	for rep := 0; rep < w.minReps || time.Since(start).Seconds() < c.seconds; rep++ {
		r := w.rep(c.seed)
		c.out.ops(len(r.roundsMS), 0)
		c.out.check(r.err, "warm-up round")
		if rep == 0 {
			c.out.check(checkFormation(r.groups, r.clients), "formation covers every client exactly once")
			params, hash = r.params, r.inputsHash
			s.acc, s.loss = r.acc, r.loss
			c.logf("inputs hash %016x (%d clients, %d groups)", hash, r.clients, len(r.groups))
		} else {
			c.out.check(checkSameRun(params, hash, r.params, r.inputsHash), "repetitions of one seed end bit-identical")
		}
		s.setupS = append(s.setupS, r.setupS)
		s.addRounds(r.roundsMS)
		s.samples += r.samples
		r = trainerRep{}
		runtime.GC()
	}
	c.emitE2E(s)
}

// setupOnly times one set-up without running it.
func (w trainerWorkload) setupOnly(seed uint64) float64 {
	cfg := w.runConfig(seed)
	t0 := time.Now()
	core.NewTrainer(w.build(seed), cfg)
	return time.Since(t0).Seconds()
}

// checkSameRun compares a repetition with the first one of the same seed.
func checkSameRun(params []float64, hash uint64, gotParams []float64, gotHash uint64) error {
	if gotHash != hash {
		return fmt.Errorf("inputs hash %016x, first repetition %016x", gotHash, hash)
	}
	if !sameBits(params, gotParams) {
		return fmt.Errorf("final parameters differ from the first repetition")
	}
	return nil
}

// runTraced runs one untraced and one traced repetition, checks that
// tracing moved no bit, and emits the per-layer ledger.
func (w trainerWorkload) runTraced(c *runCtx) {
	o := c.out
	u := w.rep(c.seed)
	o.ops(len(u.roundsMS), 0)
	o.check(u.err, "warm-up round")
	uParams, uP50 := u.params, median(u.roundsMS)
	u = trainerRep{}
	runtime.GC()

	rec := newRecorder()
	t := w.tracedRep(c.seed, rec)
	o.ops(len(t.roundsMS), 0)
	o.check(t.err, "warm-up round and span reads")
	lay := t.layers
	o.check(checkTracedBits(uParams, t.params), "traced and untraced final parameters are Float64bits-equal")
	o.check(checkFormation(t.groups, t.clients), "formation covers every client exactly once")
	c.logf("inputs hash %016x (%d clients, %d groups)", t.inputsHash, t.clients, len(t.groups))

	R := float64(len(t.roundsMS))
	tot := lay.reg
	gagg := tot.sums["fel_core_group_aggregate_seconds"]
	glob := tot.sums["fel_core_global_aggregate_seconds"]
	gap, residual, err := reconcile(msToNS(t.roundsMS), lay.localCoverNS, tot.spanNS(roundSpans...))
	o.check(err, "layer self-times reconcile with round wall time")

	shapes := denseShapes(lay.sys.NewModel(lay.sys.ModelSeed))
	var flops, bytes float64
	for _, call := range lay.localCalls {
		for _, b := range batchesOf(call.n, lay.cfg.BatchSize, lay.cfg.LocalEpochs) {
			f, by := gemmCounts(shapes, b)
			flops += f
			bytes += by
		}
	}
	o.set("tensor.gemm_gflops", probeGEMM(shapes, lay.cfg.BatchSize))
	o.set("tensor.gemm_flops_per_round", flops/R)
	o.set("tensor.gemm_bytes_per_round", bytes/R)
	x, y := firstBatch(lay.sys, lay.cfg.BatchSize)
	o.set("nn.train_batch_ms", probeTrainBatch(lay.sys, x, y, lay.cfg.LR))
	o.set("core.local_train_busy_ms_per_round", float64(lay.localBusyNS)/1e6/R)
	o.set("core.local_epochs_per_round", float64(tot.counters["fel_core_local_epochs_total"])/R)
	o.set("core.selected_clients_per_round", float64(lay.selected)/R)
	o.set("core.group_aggregate_ms_per_round", gagg*1e3/R)
	o.set("core.global_aggregate_ms_per_round", glob*1e3/R)
	o.set("core.round_residual_ms", float64(residual)/1e6/R)
	sampleUS := probeSample(t.probs, lay.cfg.SampleGroups)
	o.set("sampling.sample_us_per_round", sampleUS)
	if w.virtual {
		synthMS := probeSynth(w.system(c.seed), lay.localCalls) / R
		o.set("data.synth_ms_per_round", synthMS)
		c.logf("of a %.1f ms round: residual %.1f ms, Sampler.Sample %.2f ms (%.1f%%), data synthesis %.1f ms on one worker (%d workers)",
			median(t.roundsMS), float64(residual)/1e6/R, sampleUS/1e3, 100*sampleUS/1e3/median(t.roundsMS), synthMS, lay.cfg.MaxParallel)
	}
	o.set("core.allocs_per_round", float64(lay.allocs)/R)
	o.set("core.alloc_bytes_per_round", float64(lay.allocBytes)/R)
	o.set("data.build_s", lay.buildS)
	o.set("data.population_heap_mb", lay.heapMB)
	o.set("grouping.form_s", lay.formS)
	o.set("grouping.clients_per_s", float64(t.clients)/lay.formS)
	o.set("grouping.groups", float64(len(t.groups)))
	o.set("sampling.probabilities_ms", probeProbabilities(t.groups, lay.cfg.Sampling))
	setCommonProbes(c, lay.state, len(uParams), medianGroupSize(t.groups))
	o.set("trace.overhead_ratio", median(t.roundsMS)/uP50)
	o.set("trace.reconcile_max_error", gap)
	o.set("trace.rounds", R)
	fillInapplicable(o, w.name)
	o.check(rec.write(c.traceFile(w.name)), "write the span dump")
}

// setCommonProbes fills the probe-based metrics every workload reports at
// its own sizes: checkpoint write of its trainer state (when it has one),
// wire codec on its model frame, and a secure-aggregation session at its
// group size.
func setCommonProbes(c *runCtx, st *core.TrainerState, dim, groupSize int) {
	o := c.out
	if st != nil {
		ms, size, err := probeCheckpoint(c.outDir, st)
		o.check(err, "checkpoint probe")
		o.set("felserve.checkpoint_ms", ms)
		o.set("felserve.checkpoint_bytes", float64(size))
	}
	enc, dec, err := probeWire(dim)
	o.check(err, "wire probe")
	o.set("wire.encode_mb_per_s", enc)
	o.set("wire.decode_mb_per_s", dec)
	sess, recov, err := probeSecagg(max(groupSize, 3), dim)
	o.check(err, "secagg probe")
	o.set("secagg.session_ms", sess)
	o.set("secagg.recovery_ms", recov)
}

// checkTracedBits is the tracing contract: the traced repetition must end
// with exactly the untraced parameters.
func checkTracedBits(untraced, traced []float64) error {
	if !sameBits(untraced, traced) {
		return fmt.Errorf("tracing changed the final parameters")
	}
	return nil
}

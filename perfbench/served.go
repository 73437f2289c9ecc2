package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/async"
	"repro/internal/core"
	"repro/internal/fednode"
	"repro/internal/felserve"
	"repro/internal/metrics"
	"repro/internal/wire"
)

// served-fleet: one felserve service running six small jobs side by side,
// each checkpointing every servedCheckpointEvery rounds into a temporary
// directory, with two
// subscribers on an in-memory listener following one sync and one async
// job. A round is measured where a user sees it: the gap between model
// versions at a subscriber, divided by the rounds it advanced.

const (
	servedJobs   = 6
	servedRounds = 150
	servedReps   = 2
	// servedCheckpointEvery spaces the durable checkpoints. A checkpoint
	// every round put six fsyncs into each wave, and an fsync waits on
	// whatever else the disk is writing: under a concurrent writer the
	// round p50 rose from 21 to 53 ms. At every 50 rounds the checkpoint
	// waves are 4 of a repetition's ~300 version gaps, below the 10 that
	// round_ms_tail leaves beyond it, so checkpoint cost shows in
	// samples_per_s and the per-layer felserve metrics.
	servedCheckpointEvery = 50
	// subscribed lists the jobs the two subscribers follow: one sync SGD
	// job and one buffered-async job.
	subSync, subAsync = 0, 4
)

// servedSpecs generates the fleet: two sync SGD jobs, two sync SCAFFOLD
// jobs and two buffered-async jobs under the straggler-storm delay model,
// 80 clients each. Each job's population is a fixed task (SystemSeed); the
// workload seed draws its formation, sampling and SGD order (Seed).
func servedSpecs(seed uint64) []felserve.JobSpec {
	specs := make([]felserve.JobSpec, servedJobs)
	for j := range specs {
		s := felserve.JobSpec{
			Name:    fmt.Sprintf("job-%d", j),
			Clients: 80, Edges: 2,
			SystemSeed: mix(taskSeed, uint64(j)), Seed: mix(seed, uint64(j)),
			Rounds: servedRounds, GroupRounds: 2, LocalEpochs: 1,
			BatchSize: 8, LR: 0.05, SampleGroups: 8,
			// A CoV target no group can miss closes every group at
			// MinGS, so each round trains 8 groups of 5 whatever the seed.
			MinGS: 5, MaxCoV: 100,
			// Six jobs step side by side each wave, which already fills
			// the processors; serial trainers keep the wave from
			// oversubscribing them.
			MaxParallel: 1,
			EvalEvery:   servedRounds + 1,
		}
		switch j / 2 {
		case 1:
			s.Scaffold = true
		case 2:
			s.Async = async.Config{Mode: async.Buffered, Alpha: 0.5, BufferFrac: 0.5, Delays: async.StragglerStorm()}
		}
		specs[j] = s
	}
	return specs
}

// mix derives a job's seeds from the workload seed (splitmix64 finalizer).
func mix(seed, k uint64) uint64 {
	z := seed + k*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// delivery is one model version a subscriber received.
type delivery struct {
	version int
	at      time.Time
	final   bool
	params  []float64
}

// servedRep is what one fleet run leaves behind.
type servedRep struct {
	setupS    float64
	fleetS    float64
	roundsMS  []float64
	samples   float64
	acc, loss float64
	params    [][]float64
	results   []*core.Result
	subs      [2][]delivery
	jobRegs   []*metrics.Registry
	allocs    uint64
	allocB    uint64
	failures  []error
	jobErrs   int
}

// servedRun runs the fleet once. reg and rec, when non-nil, are the traced
// run's service-level registry and span recorder.
func servedRun(seed uint64, dir string, reg *metrics.Registry, rec *recorder) servedRep {
	var out servedRep
	fail := func(err error) { out.failures = append(out.failures, err) }
	ckptDir, err := os.MkdirTemp(dir, "served-")
	if err != nil {
		fail(err)
		return out
	}
	defer removeAll(ckptDir)
	goroutines := runtime.NumGoroutine()
	specs := servedSpecs(seed)

	t0 := time.Now()
	svc := felserve.New(felserve.Config{Dir: ckptDir, CheckpointEvery: servedCheckpointEvery, StartHeld: true, Registry: reg})
	nw := fednode.NewMemNetwork()
	ln, err := nw.Listen("")
	if err != nil {
		fail(err)
		closeService(svc, fail)
		return out
	}
	svc.Serve(ln)
	jobs := make([]*felserve.Job, len(specs))
	for j, spec := range specs {
		if jobs[j], err = svc.Submit(spec); err != nil {
			fail(fmt.Errorf("submit %s: %w", spec.Name, err))
			closeService(svc, fail)
			return out
		}
	}
	var subs [2]*felserve.Subscription
	for i, j := range []int{subSync, subAsync} {
		conn, err := nw.Dial(ln.Addr().String())
		if err == nil {
			subs[i], err = felserve.Subscribe(conn, specs[j].Name)
			if err != nil {
				closeQuiet(conn)
			}
		}
		if err != nil {
			fail(fmt.Errorf("subscribe to %s: %w", specs[j].Name, err))
			for _, s := range subs[:i] {
				closeQuiet(s)
			}
			closeService(svc, fail)
			return out
		}
	}
	out.setupS = time.Since(t0).Seconds()
	rec.add("felserve.setup", t0, t0.Add(time.Duration(out.setupS*1e9)))

	var wg sync.WaitGroup
	subErrs := make([]error, 2)
	for i, sub := range subs {
		wg.Add(1)
		go func(i int, sub *felserve.Subscription) {
			defer wg.Done()
			defer closeQuiet(sub)
			for {
				v, params, final, err := sub.Next()
				if err != nil {
					subErrs[i] = err
					return
				}
				out.subs[i] = append(out.subs[i], delivery{version: v, at: time.Now(), final: final, params: params})
				if final {
					return
				}
			}
		}(i, sub)
	}

	var before, after runtime.MemStats
	if reg != nil {
		runtime.ReadMemStats(&before)
	}
	start := time.Now()
	svc.Start()
	for j, job := range jobs {
		res, err := job.Wait()
		rec.add("felserve.Job.Wait", start, time.Now())
		if err != nil {
			out.jobErrs++
			fail(fmt.Errorf("job %s: %w", specs[j].Name, err))
			continue
		}
		out.results = append(out.results, res)
		out.params = append(out.params, res.Params)
		out.jobRegs = append(out.jobRegs, job.Registry())
	}
	out.fleetS = time.Since(start).Seconds()
	if reg != nil {
		runtime.ReadMemStats(&after)
		out.allocs = after.Mallocs - before.Mallocs
		out.allocB = after.TotalAlloc - before.TotalAlloc
	}
	wg.Wait()
	closeService(svc, fail)
	for i, err := range subErrs {
		if err != nil {
			fail(fmt.Errorf("subscriber %d: %w", i, err))
		}
	}

	for i := range out.subs {
		out.roundsMS = append(out.roundsMS, versionGaps(out.subs[i], start)...)
		for k := 1; k < len(out.subs[i]); k++ {
			rec.add("felserve.Subscription.Next", out.subs[i][k-1].at, out.subs[i][k].at)
		}
	}
	if len(out.results) == len(specs) {
		for j, res := range out.results {
			out.acc += res.FinalAccuracy / float64(len(specs))
			out.loss += res.FinalLoss / float64(len(specs))
			s := specs[j]
			out.samples += participationSamples(s.System().Clients, res.Participation, s.LocalEpochs*s.GroupRounds)
		}
		for i, j := range []int{subSync, subAsync} {
			if err := checkSubscriberFinal(out.subs[i], out.params[j]); err != nil {
				fail(fmt.Errorf("subscriber of %s: %w", specs[j].Name, err))
			}
		}
	}
	if err := checkNoFiles(ckptDir); err != nil {
		fail(err)
	}
	if err := checkNoLeak(goroutines); err != nil {
		fail(err)
	}
	return out
}

// closeService stops the service, joining its goroutines.
func closeService(svc *felserve.Service, fail func(error)) {
	if err := svc.Close(); err != nil {
		fail(fmt.Errorf("close service: %w", err))
	}
}

// closeQuiet closes a subscriber connection whose stream is over or was
// never admitted; the service side has already gone or will time it out.
func closeQuiet(c interface{ Close() error }) {
	//lint:ignore dropped-error the connection is abandoned either way
	c.Close()
}

// versionGaps turns a subscriber's deliveries into per-round times: the
// gap since the previous version (or since the service started) divided by
// the rounds it advanced. Versions delivered before start (the admission
// snapshot) and repeats (the closing aggregate) yield nothing.
func versionGaps(ds []delivery, start time.Time) []float64 {
	var out []float64
	prevV, prevT := -1, start
	for _, d := range ds {
		if d.at.Before(start) {
			prevV = d.version
			continue
		}
		if d.version > prevV && prevV >= 0 {
			ms := float64(d.at.Sub(prevT).Nanoseconds()) / 1e6
			out = append(out, ms/float64(d.version-prevV))
		}
		if d.version > prevV {
			prevV, prevT = d.version, d.at
		}
	}
	return out
}

// checkSubscriberFinal requires the subscriber's closing aggregate to
// equal the job's Wait parameters bit for bit.
func checkSubscriberFinal(ds []delivery, want []float64) error {
	if len(ds) == 0 || !ds[len(ds)-1].final {
		return fmt.Errorf("no final model received")
	}
	if !sameBits(ds[len(ds)-1].params, want) {
		return fmt.Errorf("final model differs from the job's result")
	}
	return nil
}

// checkNoFiles requires a finished service to leave no checkpoint behind.
func checkNoFiles(dir string) error {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	if len(ents) > 0 {
		return fmt.Errorf("%d files left in the checkpoint directory (first %s)", len(ents), ents[0].Name())
	}
	return nil
}

// checkNoLeak waits up to two seconds for the goroutine count to fall back
// to what it was before the service started.
func checkNoLeak(before int) error {
	deadline := time.Now().Add(2 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= before {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%d goroutines leaked", n-before)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func runServed(c *runCtx) {
	if c.trace {
		runServedTraced(c)
		return
	}
	var s e2eSamples
	var first [][]float64
	start := time.Now()
	for rep := 0; rep < servedReps || time.Since(start).Seconds() < c.seconds; rep++ {
		r := servedRun(c.seed, c.outDir, nil, nil)
		c.countServed(r)
		if rep == 0 {
			first = r.params
			s.acc, s.loss = r.acc, r.loss
			c.logf("inputs hash %016x", servedInputsHash(c.seed))
		} else {
			c.out.check(checkSameParams(first, r.params), "repetitions of one seed end bit-identical")
		}
		s.setupS = append(s.setupS, r.setupS)
		s.roundsMS = append(s.roundsMS, r.roundsMS...)
		// A fleet repetition has hundreds of version gaps, and the slow
		// ones (checkpoint fsyncs, host scheduling) come in bursts, so
		// the tail is taken per repetition and the median reported.
		s.repTails = append(s.repTails, r.roundsMS)
		s.roundS += r.fleetS
		s.samples += r.samples
		runtime.GC()
	}
	c.emitE2E(s)
}

// countServed books a fleet run's operations — every job round, every job
// and both subscriber finals — and each check the run failed.
func (c *runCtx) countServed(r servedRep) {
	c.out.ops(servedJobs*servedRounds+servedJobs+2, r.jobErrs)
	for _, err := range r.failures {
		c.out.check(err, "served-fleet run")
	}
}

// servedInputsHash fingerprints the fleet's generated partitions and
// formations.
func servedInputsHash(seed uint64) uint64 {
	h := uint64(0)
	for _, spec := range servedSpecs(seed) {
		sys := spec.System()
		tr := core.NewTrainer(sys, spec.TrainConfig(nil))
		h = h*31 + inputsHash(sys.Clients, tr.Finish().Groups)
	}
	return h
}

// checkSameParams requires two runs' per-job final parameters to be
// Float64bits-equal.
func checkSameParams(a, b [][]float64) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d jobs finished, first repetition %d", len(b), len(a))
	}
	for j := range a {
		if !sameBits(a[j], b[j]) {
			return fmt.Errorf("job %d's final parameters differ", j)
		}
	}
	return nil
}

func runServedTraced(c *runCtx) {
	o := c.out
	u := servedRun(c.seed, c.outDir, nil, nil)
	c.countServed(u)
	uP50 := median(u.roundsMS)
	uParams := u.params
	u = servedRep{}
	runtime.GC()

	rec := newRecorder()
	reg := metrics.New()
	t := servedRun(c.seed, c.outDir, reg, rec)
	c.countServed(t)
	o.check(checkSameParams(uParams, t.params), "traced and untraced final parameters are Float64bits-equal")
	if len(t.results) != servedJobs {
		fillInapplicable(o, wServed)
		return
	}

	svcTot, err := readRegistry(reg)
	o.check(err, "read the service registry")
	jobTot := registryTotals{counters: map[string]int64{}, sums: map[string]float64{}}
	asyncTot := registryTotals{counters: map[string]int64{}, sums: map[string]float64{}}
	specs := servedSpecs(c.seed)
	for j, jr := range t.jobRegs {
		tot, err := readRegistry(jr)
		o.check(err, "read a job registry")
		jobTot.add(tot)
		if specs[j].Async.Mode != async.Sync {
			asyncTot.add(tot)
		}
	}
	jobRounds := float64(servedJobs * servedRounds)
	asyncRounds := float64(2 * servedRounds)

	o.set("core.group_aggregate_ms_per_round", jobTot.sums["fel_core_group_aggregate_seconds"]*1e3/jobRounds)
	o.set("core.global_aggregate_ms_per_round", jobTot.sums["fel_core_global_aggregate_seconds"]*1e3/jobRounds)
	o.set("core.allocs_per_round", float64(t.allocs)/jobRounds)
	o.set("core.alloc_bytes_per_round", float64(t.allocB)/jobRounds)

	// Each job, stepped alone outside the service, reconciles its layer
	// spans with its rounds' wall time and must end with the fleet's bits.
	var gap float64
	var alone []jobAlone
	for j, spec := range specs {
		a := stepAlone(spec)
		o.check(a.err, "reconcile "+spec.Name+"'s layer spans with its round wall time")
		o.check(checkSameParams(t.params[j:j+1], [][]float64{a.res.Params}), spec.Name+" stepped alone ends with the fleet's parameters")
		gap = max(gap, a.gap)
		alone = append(alone, a)
	}
	dim := len(uParams[subSync])
	setCommonProbes(c, alone[subSync].state, dim, medianGroupSize(alone[subSync].res.Groups))
	o.set("felserve.checkpoints_per_round", float64(svcTot.counters["fel_serve_checkpoints_total"])/float64(svcTot.counters["fel_serve_rounds_total"]))

	received, published := 0, 0
	for i, j := range []int{subSync, subAsync} {
		seen := map[int]bool{}
		for _, d := range t.subs[i] {
			seen[d.version] = true
		}
		received += len(seen)
		jt, err := readRegistry(t.jobRegs[j])
		o.check(err, "read a job registry")
		published += int(jt.counters["fel_serve_job_versions_total"])
	}
	o.set("felserve.versions_delivered_ratio", float64(received)/float64(published))

	folded, dispatched := 0, 0
	for j, res := range t.results {
		if specs[j].Async.Mode == async.Sync || res.ArrivalLog == nil {
			continue
		}
		for _, ev := range res.ArrivalLog.Events() {
			switch ev.Kind {
			case async.Flush:
				folded += ev.Stale
			case async.Arrive, async.Drop, async.Late:
				dispatched++
			}
		}
	}
	o.check(checkAsyncCounters(folded, asyncTot.counters["fel_async_folds_total"]), "arrival log agrees with fel_async_folds_total")
	o.set("async.useful_ratio", float64(folded)/float64(dispatched))
	o.set("async.ticks_per_round", float64(asyncTot.counters["fel_async_ticks_total"])/asyncRounds)
	o.set("async.flushes_per_round", float64(asyncTot.counters["fel_async_flushes_total"])/asyncRounds)

	sent := float64(svcTot.counters["fel_serve_versions_sent_total"])
	frame := (&wire.Message{Type: wire.GlobalModel, Floats: make([]float64, dim)}).EncodedSize()
	o.set("wire.frames_per_round", sent/jobRounds)
	o.set("wire.bytes_per_round", sent*float64(frame)/jobRounds)

	o.set("trace.overhead_ratio", median(t.roundsMS)/uP50)
	o.set("trace.reconcile_max_error", gap)
	o.set("trace.rounds", float64(len(t.roundsMS)))
	fillInapplicable(o, wServed)
	o.check(rec.write(c.traceFile(wServed)), "write the span dump")
}

// checkAsyncCounters requires the arrival log's folded-update total to
// match the engine's commuting fel_async_folds_total counter.
func checkAsyncCounters(logFolded int, counter int64) error {
	if int64(logFolded) != counter {
		return fmt.Errorf("arrival log folds %d updates, fel_async_folds_total %d", logFolded, counter)
	}
	return nil
}

// jobAlone is one fleet job stepped through core.Trainer outside the
// service: its result, its state before Finish, and the reconciliation of
// its layer spans with its rounds' wall time.
type jobAlone struct {
	res   *core.Result
	state *core.TrainerState
	gap   float64
	err   error
}

// stepAlone steps one job's spec alone with its own registry. The job
// trains its clients one at a time (MaxParallel 1), so its local-training
// span sum is wall-clock coverage, and every span it records — local
// training, group and global aggregation, evaluation — lies inside a Step.
func stepAlone(spec felserve.JobSpec) jobAlone {
	var a jobAlone
	reg := metrics.New()
	tr := core.NewTrainer(spec.System(), spec.TrainConfig(reg))
	var wall []float64
	for !tr.Done() {
		s := time.Now()
		tr.Step()
		wall = append(wall, msSince(s))
	}
	tot, err := readRegistry(reg)
	st, err2 := tr.ExportState()
	a.state, a.res = st, tr.Finish()
	gap, _, err3 := reconcile(msToNS(wall), nil, tot.spanNS(append([]string{"fel_core_local_train_seconds"}, roundSpans...)...))
	a.gap, a.err = gap, errors.Join(err, err2, err3)
	return a
}

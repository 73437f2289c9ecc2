package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/data"
	"repro/internal/fednode"
	"repro/internal/grouping"
	"repro/internal/metrics"
	"repro/internal/stats"
)

func TestMain(m *testing.M) {
	if err := loadCatalog(filepath.Join("..", "BENCHMARK.json")); err != nil {
		fmt.Fprintln(os.Stderr, "catalog:", err)
		os.Exit(1)
	}
	os.Exit(m.Run())
}

func TestTailPercentile(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: the rule must sort
		}
		return xs
	}
	cases := []struct {
		n, p int
		ok   bool
	}{
		{5, 0, false},
		{10, 0, false},
		{11, 9, true},
		{20, 50, true},
		{40, 75, true},
		{100, 90, true},
		{1000, 99, true},
	}
	for _, tc := range cases {
		got, ok := tailPercentile(seq(tc.n))
		if ok != tc.ok || got.Count != tc.n {
			t.Fatalf("n=%d: ok=%v count=%d, want ok=%v count=%d", tc.n, ok, got.Count, tc.ok, tc.n)
		}
		if !ok {
			continue
		}
		if got.Percentile != tc.p {
			t.Fatalf("n=%d: p%d, want p%d", tc.n, got.Percentile, tc.p)
		}
		// Values are 1..n, so the value is its own rank: at least ten
		// samples lie beyond it, and the next percentile up would leave
		// fewer.
		beyond := tc.n - int(got.Value)
		if beyond < tailMinBeyond {
			t.Fatalf("n=%d: p%d leaves %d samples beyond", tc.n, got.Percentile, beyond)
		}
		if got.Percentile < 99 && tc.n-nearestRank(got.Percentile+1, tc.n) >= tailMinBeyond {
			t.Fatalf("n=%d: p%d is not the highest qualifying percentile", tc.n, got.Percentile)
		}
	}
}

// TestRepTails covers served-fleet's tail: the median of the
// repetitions' tails, so that one slow repetition does not set it (pooled,
// its rounds would fill the top of the run's tail).
func TestRepTails(t *testing.T) {
	rep := func(shift float64) []float64 {
		xs := make([]float64, 20) // p50 leaves ten beyond: tail = 10+shift
		for i := range xs {
			xs[i] = float64(i+1) + shift
		}
		return xs
	}
	c := &runCtx{out: newOutcome()}
	c.emitE2E(e2eSamples{setupS: []float64{1}, roundS: 1, repTails: [][]float64{rep(0), rep(100), rep(10)}})
	if got := c.out.metrics["round_ms_tail"]; !stats.ApproxEqual(got, 20, 1e-12) || c.out.failed != 0 {
		t.Fatalf("round_ms_tail %v (failures %v), want the median repetition tail 20", got, c.out.failures)
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestCatalogNames(t *testing.T) {
	seen := map[string]bool{}
	name := func(n string) {
		t.Helper()
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %s", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloadNames {
		name(w)
		if why := workloadWhy[w]; why == "" || len(why) > 200 || strings.Contains(why, "\n") {
			t.Errorf("workload %s: why must be one line of 1..200 characters, got %d", w, len(why))
		}
	}
	var setupBound, otherMax float64
	for _, m := range endToEnd {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: unit %q better %q", m.Name, m.Unit, m.Better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setupBound = m.Bound
		} else {
			otherMax = math.Max(otherMax, m.Bound)
		}
	}
	if setupBound <= otherMax {
		t.Errorf("setup_s bound %v must be the largest (others up to %v)", setupBound, otherMax)
	}
	for _, m := range perLayer {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: unit %q better %q", m.Name, m.Unit, m.Better)
		}
	}
}

// TestBenchmarkKeys requires BENCHMARK.json to hold exactly the contract's
// keys, and the command to run the script that builds this package.
func TestBenchmarkKeys(t *testing.T) {
	var raw map[string]json.RawMessage
	readJSON(t, filepath.Join("..", "BENCHMARK.json"), &raw)
	want := []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}
	var keys []string
	for k := range raw {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if !reflect.DeepEqual(keys, want) {
		t.Fatalf("BENCHMARK.json keys %v, want %v", keys, want)
	}
	var m manifest
	readJSON(t, filepath.Join("..", "BENCHMARK.json"), &m)
	if !reflect.DeepEqual(m.Command, []string{"bash", "perfbench/run.sh"}) || !reflect.DeepEqual(m.Paths, []string{"perfbench"}) {
		t.Fatalf("command %v paths %v", m.Command, m.Paths)
	}
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

// TestEmittedSet covers the run-time guard every run ends with: the
// metrics must be exactly the catalog's for the mode. A traced workload
// may leave to fillInapplicable only the layers its catalog entry does not
// claim, so forgetting to measure a claimed layer fails the run.
func TestEmittedSet(t *testing.T) {
	for _, traced := range []bool{false, true} {
		full := map[string]float64{}
		for name := range catalogUnits(traced) {
			full[name] = 1
		}
		if err := checkEmitted(full, traced); err != nil {
			t.Fatalf("traced=%v: full set rejected: %v", traced, err)
		}
		extra := map[string]float64{"unnamed.metric": 1}
		for k, v := range full {
			extra[k] = v
		}
		if checkEmitted(extra, traced) == nil {
			t.Fatalf("traced=%v: an unnamed metric was accepted", traced)
		}
		for name := range full {
			short := map[string]float64{}
			for k, v := range full {
				if k != name {
					short[k] = v
				}
			}
			if checkEmitted(short, traced) == nil {
				t.Fatalf("traced=%v: missing %s was accepted", traced, name)
			}
			break
		}
	}
	for _, w := range workloadNames {
		o := newOutcome()
		fillInapplicable(o, w)
		for _, m := range perLayer {
			_, filled := o.metrics[m.Name]
			if filled == contains(m.On, w) {
				t.Fatalf("%s: fillInapplicable filled=%v for %s (on %v)", w, filled, m.Name, m.On)
			}
		}
	}
}

func flipBit(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	out[len(out)/2] = math.Float64frombits(math.Float64bits(out[len(out)/2]) ^ 1)
	return out
}

func TestChecksRejectCorruptOutputs(t *testing.T) {
	params := []float64{0.5, -1.25, 3e-7, 42}

	ok := []delivery{{version: 0}, {version: 3, final: true, params: params}}
	if err := checkSubscriberFinal(ok, params); err != nil {
		t.Fatalf("clean subscriber final rejected: %v", err)
	}
	bad := []delivery{{version: 0}, {version: 3, final: true, params: flipBit(params)}}
	if checkSubscriberFinal(bad, params) == nil {
		t.Fatal("a subscriber final with one flipped bit was accepted")
	}
	if checkSubscriberFinal(ok[:1], params) == nil {
		t.Fatal("a subscriber without a final was accepted")
	}

	if checkTracedBits(params, params) != nil || checkTracedBits(params, flipBit(params)) == nil {
		t.Fatal("checkTracedBits does not detect one flipped bit")
	}
	if checkSameRun(params, 7, params, 7) != nil || checkSameRun(params, 7, params, 8) == nil ||
		checkSameRun(params, 7, flipBit(params), 7) == nil {
		t.Fatal("checkSameRun does not detect a changed hash or bit")
	}
	if checkSameParams([][]float64{params}, [][]float64{flipBit(params)}) == nil {
		t.Fatal("checkSameParams does not detect one flipped bit")
	}

	clients := make([]*data.Client, 6)
	for i := range clients {
		clients[i] = &data.Client{ID: i, N: 1, Counts: []float64{1, 0}}
	}
	g := func(id int, ids ...int) *grouping.Group {
		var cs []*data.Client
		for _, i := range ids {
			cs = append(cs, clients[i])
		}
		return grouping.NewGroup(id, 0, cs, 2)
	}
	if err := checkFormation([]*grouping.Group{g(0, 0, 1, 2), g(1, 3, 4, 5)}, 6); err != nil {
		t.Fatalf("exact cover rejected: %v", err)
	}
	if checkFormation([]*grouping.Group{g(0, 0, 1, 2), g(1, 3, 4)}, 6) == nil {
		t.Fatal("a formation missing a client was accepted")
	}
	if checkFormation([]*grouping.Group{g(0, 0, 1, 2), g(1, 2, 3, 4, 5)}, 6) == nil {
		t.Fatal("a formation with a client in two groups was accepted")
	}

	dir := t.TempDir()
	if err := checkNoFiles(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "job-0.ckpt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if checkNoFiles(dir) == nil {
		t.Fatal("a leftover checkpoint was accepted")
	}

	if checkAsyncCounters(12, 12) != nil || checkAsyncCounters(12, 13) == nil {
		t.Fatal("checkAsyncCounters does not compare")
	}

	in := secureInputs{
		groups: []*grouping.Group{g(0, 0, 1, 2), g(1, 3, 4, 5)},
		sel:    make([][]int, secureRounds),
		target: 0, drop: 0,
	}
	for r := range in.sel {
		in.sel[r] = []int{r % 2}
	}
	clean := fednode.Report{WireWritten: 100, AccountedBytes: 100, Dropouts: 1, Recoveries: secureGroupK * (secureRounds / 2), RoundsRun: secureRounds}
	if err := checkSecure(in, &clean, 0); err != nil {
		t.Fatalf("clean secure report rejected: %v", err)
	}
	for name, mutate := range map[string]func(*fednode.Report){
		"unaccounted byte": func(r *fednode.Report) { r.WireWritten++ },
		"uninjected drop":  func(r *fednode.Report) { r.Dropouts++ },
		"missed recovery":  func(r *fednode.Report) { r.Recoveries-- },
		"short run":        func(r *fednode.Report) { r.RoundsRun-- },
	} {
		r := clean
		mutate(&r)
		if checkSecure(in, &r, 0) == nil {
			t.Errorf("secure report with %s accepted", name)
		}
	}
	if checkSecure(in, &clean, 1) == nil {
		t.Error("a straggler timeout was accepted")
	}

	if gap, res, err := reconcile([]int64{100, 100}, []int64{90, 90}, 15); err != nil || res != 5 || !stats.ApproxEqual(gap, 0.025, 1e-12) {
		t.Fatalf("disjoint self-times: gap %v residual %v err %v, want 0.025, 5, nil", gap, res, err)
	}
	if gap, _, err := reconcile([]int64{100, 100}, nil, 204); err != nil || !stats.ApproxEqual(gap, 0.02, 1e-12) {
		t.Fatalf("spans 2%% over wall time: gap %v err %v, want 0.02 within tolerance", gap, err)
	}
	if _, _, err := reconcile([]int64{100, 100}, []int64{120, 90}, 0); err == nil {
		t.Fatal("a round whose layers exceed its wall time was accepted")
	}
	if _, _, err := reconcile([]int64{100, 100}, []int64{90, 90}, 40); err == nil {
		t.Fatal("span sums exceeding the run's wall time were accepted")
	}
}

func TestCheckNoLeak(t *testing.T) {
	// Five parked goroutines stand in for a leak; a margin of five keeps
	// the test immune to unrelated goroutines ending meanwhile.
	const n = 5
	release := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-release
		}()
	}
	cur := runtime.NumGoroutine()
	if err := checkNoLeak(cur); err != nil {
		t.Fatalf("a count at the baseline was reported as a leak: %v", err)
	}
	if checkNoLeak(cur-n) == nil {
		t.Fatal("live goroutines above the baseline were not reported")
	}
	close(release)
	wg.Wait()
}

// TestSeedsChangeInputs is the seed contract: a seed reproduces its
// inputs exactly, and another seed changes them.
func TestSeedsChangeInputs(t *testing.T) {
	hash := func(seed uint64) uint64 {
		in := secureGenerate(seed)
		sys := kernelTrain.build(seed)
		cfg := kernelTrain.runConfig(seed)
		groups := grouping.FormAll(cfg.Grouping, sys.Edges, sys.Classes, stats.NewRNG(cfg.Seed).Split(1))
		return inputsHash(in.sys.Clients, in.groups)*31 + inputsHash(sys.Clients, groups)
	}
	if a, b := hash(5), hash(5); a != b {
		t.Fatalf("seed 5 gave %016x then %016x", a, b)
	}
	if hash(5) == hash(6) {
		t.Fatal("seeds 5 and 6 gave the same inputs")
	}
	if servedInputsHash(5) != servedInputsHash(5) || servedInputsHash(5) == servedInputsHash(6) {
		t.Fatal("served-fleet inputs do not follow the seed")
	}
}

func TestVersionGaps(t *testing.T) {
	start := time.Unix(100, 0)
	at := func(ms int) time.Time { return start.Add(time.Duration(ms) * time.Millisecond) }
	ds := []delivery{
		{version: 0, at: at(-5)},
		{version: 1, at: at(10)},
		{version: 3, at: at(30)}, // two rounds advanced, 20 ms
		{version: 4, at: at(45)},
		{version: 4, at: at(46), final: true},
	}
	got := versionGaps(ds, start)
	want := []float64{10, 10, 15}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("gaps %v, want %v", got, want)
	}
}

func TestGemmCounts(t *testing.T) {
	flops, bytes := gemmCounts([][2]int{{4, 3}}, 2)
	if int(flops) != 3*2*2*4*3 || int(bytes) != 3*8*(2*4+4*3+2*3) {
		t.Fatalf("flops %v bytes %v", flops, bytes)
	}
	if got := batchesOf(200, 96, 2); !reflect.DeepEqual(got, []int{96, 96, 8, 96, 96, 8}) {
		t.Fatalf("batches %v", got)
	}
	if got := batchesOf(40, 0, 1); !reflect.DeepEqual(got, []int{40}) {
		t.Fatalf("full-batch %v", got)
	}
}

func TestParticipationSamples(t *testing.T) {
	// Client 5 sits at index 2, so the lookup must fall back to IDs.
	clients := []*data.Client{{ID: 0, N: 10}, {ID: 1, N: 20}, {ID: 5, N: 7}}
	got := participationSamples(clients, map[int]int{0: 2, 1: 1, 5: 3}, 2)
	if want := (2*10 + 1*20 + 3*7) * 2; int(got) != want {
		t.Fatalf("samples %v, want %v", got, want)
	}
}

// TestServedFleetRun runs the served-fleet workload once at full size: the
// service, its subscribers and the run's own checks (bit-correct finals,
// no leftover checkpoint, no leaked goroutine) must all pass.
func TestServedFleetRun(t *testing.T) {
	r := servedRun(3, t.TempDir(), metrics.New(), newRecorder())
	for _, err := range r.failures {
		t.Error(err)
	}
	if len(r.results) != servedJobs || len(r.roundsMS) == 0 || r.setupS <= 0 {
		t.Fatalf("%d jobs finished, %d rounds measured, setup %vs", len(r.results), len(r.roundsMS), r.setupS)
	}
}

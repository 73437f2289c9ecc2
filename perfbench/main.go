// Command perfbench is the repository's benchmark: one closed-loop process
// per run drives one named workload through the program's public API,
// checks its outputs, and prints every metric by name with its unit. The
// last line of standard output is the JSON result
//
//	{"correct": bool, "attempted": n, "failed": n, "metrics": {name: {value, unit}}}
//
// With -trace 0 the metrics are the end-to-end metrics, measured with no
// registry, wrapper or probe in the program's path. With -trace 1 the run
// repeats the workload once untraced and once traced (timing wrappers
// around core.LocalUpdater and grouping.Algorithm, the program's own
// metric registries, and layer probes) and the metrics are the per-layer
// ledger. Human-readable detail goes to standard error.
//
// It reads the catalog of workloads and metrics from BENCHMARK.json in the
// working directory, so run it from the repository root through
// perfbench/run.sh, which builds it:
//
//	bash perfbench/run.sh --workload kernel-train --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// outcome accumulates one run's verdicts and metrics.
type outcome struct {
	attempted, failed int
	failures          []string
	metrics           map[string]float64
}

func newOutcome() *outcome { return &outcome{metrics: map[string]float64{}} }

// ops counts n operations (rounds, jobs, subscriber finals) of which bad
// failed.
func (o *outcome) ops(n, bad int) {
	o.attempted += n
	o.failed += bad
}

// check records one correctness check; a failing check is a failed
// operation and makes the command exit nonzero.
func (o *outcome) check(err error, what string) {
	o.attempted++
	if err != nil {
		o.failed++
		o.failures = append(o.failures, fmt.Sprintf("%s: %v", what, err))
	}
}

func (o *outcome) set(name string, v float64) { o.metrics[name] = v }

// runCtx is what a workload receives.
type runCtx struct {
	seed    uint64
	seconds float64
	trace   bool
	outDir  string
	out     *outcome
}

func (c *runCtx) logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

// workloads maps names to the functions that run them.
var workloads = map[string]func(*runCtx){
	wKernel:  kernelTrain.run,
	wMillion: millionPop.run,
	wServed:  runServed,
	wSecure:  runSecure,
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	if err := loadCatalog("BENCHMARK.json"); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: catalog:", err)
		os.Exit(1)
	}
	workload := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 10, "how long the run measures")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer ledger instead of the end-to-end metrics")
	outDir := flag.String("out", ".bench_build", "directory for temporary files and the span dump")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (one of %s), -trace 0|1 and -seconds > 0\n", strings.Join(workloadNames, ", "))
		os.Exit(2)
	}
	dir, err := filepath.Abs(*outDir)
	if err == nil {
		err = os.MkdirAll(dir, 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	ctx := &runCtx{seed: *seed, seconds: *seconds, trace: *trace == 1, outDir: dir, out: newOutcome()}
	ctx.logf("host: nproc=%d GOMAXPROCS=%d go=%s workload=%s seed=%d seconds=%g trace=%d",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), *workload, *seed, *seconds, *trace)
	run(ctx)

	res := finish(ctx.out, *workload, ctx.trace)
	for _, f := range ctx.out.failures {
		ctx.logf("FAIL %s", f)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
	if !res.Correct {
		os.Exit(1)
	}
}

// finish checks the emitted metric set against the catalog — exactly the
// end-to-end metrics, or exactly the per-layer metrics when traced — and
// renders the result, printing each metric with its unit to stderr.
func finish(o *outcome, workload string, traced bool) result {
	o.check(checkEmitted(o.metrics, traced), "emitted metrics match the catalog")
	res := result{Metrics: map[string]metricOut{}}
	names := make([]string, 0, len(o.metrics))
	for name := range o.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	units := catalogUnits(traced)
	for _, name := range names {
		v := o.metrics[name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			o.check(fmt.Errorf("%s is %v", name, v), "metric values are finite")
			continue
		}
		res.Metrics[name] = metricOut{Value: v, Unit: units[name]}
		fmt.Fprintf(os.Stderr, "perfbench: %s %s = %.6g %s\n", workload, name, v, units[name])
	}
	res.Attempted, res.Failed = o.attempted, o.failed
	res.Correct = o.failed == 0
	fmt.Fprintf(os.Stderr, "perfbench: %s failed_frac = %d/%d\n", workload, o.failed, o.attempted)
	return res
}

// catalogUnits maps the metric names of one mode to their units.
func catalogUnits(traced bool) map[string]string {
	u := map[string]string{}
	if traced {
		for _, m := range perLayer {
			u[m.Name] = m.Unit
		}
		return u
	}
	for _, m := range endToEnd {
		u[m.Name] = m.Unit
	}
	return u
}

// checkEmitted reports a metric the catalog does not name for this mode,
// or one it names that the run did not emit.
func checkEmitted(got map[string]float64, traced bool) error {
	want := catalogUnits(traced)
	var missing, extra []string
	for name := range want {
		if _, ok := got[name]; !ok {
			missing = append(missing, name)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			extra = append(extra, name)
		}
	}
	sort.Strings(missing)
	sort.Strings(extra)
	if len(missing) > 0 || len(extra) > 0 {
		return fmt.Errorf("missing %v, not in the catalog %v", missing, extra)
	}
	return nil
}

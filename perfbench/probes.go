package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/felserve"
	"repro/internal/grouping"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/sampling"
	"repro/internal/secagg"
	"repro/internal/stats"
	"repro/internal/tensor"
	"repro/internal/wire"
)

// Probes time one layer call in isolation at a workload's own shapes. They
// run after the traced repetition, never inside a measured round.

// repeatNS runs fn at least minIters times and for at least minDur, and
// returns the median per-call nanoseconds.
func repeatNS(minIters int, minDur time.Duration, fn func()) float64 {
	var ns []float64
	start := time.Now()
	for len(ns) < minIters || time.Since(start) < minDur {
		t := time.Now()
		fn()
		ns = append(ns, float64(time.Since(t).Nanoseconds()))
		if len(ns) >= 10000 {
			break
		}
	}
	return median(ns)
}

// denseShapes lists the (in, out) shapes of a model's weight matrices.
func denseShapes(m *nn.Sequential) [][2]int {
	var out [][2]int
	for _, p := range m.Params() {
		if p.Rank() == 2 {
			out = append(out, [2]int{p.Shape[0], p.Shape[1]})
		}
	}
	return out
}

// gemmCounts returns the FLOPs and the bytes the three GEMMs of a Dense
// layer's forward and backward pass touch for one batch of b samples:
// y = x·W (MatMul), dW = xᵀ·dy (MatMulAT) and dx = dy·Wᵀ (MatMulBT), each
// 2·b·in·out FLOPs over an operand set of b·in + in·out + b·out float64s.
func gemmCounts(shapes [][2]int, b int) (flops, bytes float64) {
	for _, s := range shapes {
		in, out := float64(s[0]), float64(s[1])
		bf := float64(b)
		flops += 3 * 2 * bf * in * out
		bytes += 3 * 8 * (bf*in + in*out + bf*out)
	}
	return flops, bytes
}

// batchesOf splits one client's n samples over E epochs into the batch
// sizes sgdEpochs runs: full batches of bs plus an n mod bs tail.
func batchesOf(n, bs, epochs int) []int {
	if bs <= 0 || bs > n {
		bs = n
	}
	var out []int
	for e := 0; e < epochs; e++ {
		for lo := 0; lo < n; lo += bs {
			out = append(out, min(bs, n-lo))
		}
	}
	return out
}

// probeGEMM measures the GEMM kernels' throughput at the workload's layer
// shapes and batch size.
func probeGEMM(shapes [][2]int, b int) float64 {
	rng := stats.NewRNG(11)
	var total float64
	var flops float64
	for _, s := range shapes {
		in, out := s[0], s[1]
		x := tensor.New(b, in)
		w := tensor.New(in, out)
		g := tensor.New(b, out)
		x.RandNormal(rng, 1)
		w.RandNormal(rng, 1)
		g.RandNormal(rng, 1)
		y := tensor.New(b, out)
		dw := tensor.New(in, out)
		dx := tensor.New(b, in)
		total += repeatNS(5, 30*time.Millisecond, func() {
			tensor.MatMul(y, x, w)
			tensor.MatMulAT(dw, x, g)
			tensor.MatMulBT(dx, g, w)
		})
		flops += 6 * float64(b) * float64(in) * float64(out)
	}
	return flops / total // FLOP per ns = GFLOP/s
}

// probeTrainBatch times one forward, loss, backward and SGD step of the
// workload's model on one batch.
func probeTrainBatch(sys *core.System, x *tensor.Tensor, y []int, lr float64) float64 {
	m := sys.NewModel(sys.ModelSeed)
	m.EnableBufferReuse()
	opt := nn.NewSGD(lr)
	var loss nn.SoftmaxCrossEntropy
	return repeatNS(5, 50*time.Millisecond, func() {
		logits := m.Forward(x, true)
		_, probs := loss.Forward(logits, y)
		m.Backward(loss.Backward(probs, y))
		opt.Step(m)
	}) / 1e6
}

// firstBatch returns the first b samples of the system's first client.
func firstBatch(sys *core.System, b int) (*tensor.Tensor, []int) {
	x, y := sys.ClientBatch(sys.Clients[0])
	n := min(b, x.Shape[0])
	dim := x.Size() / x.Shape[0]
	return tensor.FromSlice(append([]float64(nil), x.Data[:n*dim]...), n, dim), y[:n]
}

// probeSample times one Sampler.Sample draw of s groups over probs.
func probeSample(probs []float64, s int) float64 {
	var sp sampling.Sampler
	rng := stats.NewRNG(13)
	return repeatNS(20, 20*time.Millisecond, func() { sp.Sample(rng, probs, s) }) / 1e3
}

// probeSynth times the synthesis of every trained client's data in a
// virtual population, as the engine's workers do it before each client's
// local training (MaterializeInto, one reused buffer), in milliseconds.
func probeSynth(sc core.SystemConfig, calls []localCall) float64 {
	vp := data.NewVirtualPartition(sc.Generator, sc.Partition)
	var buf data.SampleBuffer
	t0 := time.Now()
	for _, call := range calls {
		vp.MaterializeInto(call.client, &buf)
	}
	return msSince(t0)
}

// probeProbabilities times the cloud's sampling-vector computation.
func probeProbabilities(groups []*grouping.Group, m sampling.Method) float64 {
	return repeatNS(3, 20*time.Millisecond, func() { sampling.Probabilities(groups, m) }) / 1e6
}

// probeCheckpoint times SaveCheckpoint of st (a durable write: encode,
// fsync, rename) into a fresh directory under dir, returning milliseconds
// and the encoded size; the directory is removed afterwards.
func probeCheckpoint(dir string, st *core.TrainerState) (ms float64, size int, err error) {
	tmp, err := os.MkdirTemp(dir, "ckpt-probe-")
	if err != nil {
		return 0, 0, err
	}
	defer removeAll(tmp)
	spec := felserve.JobSpec{Name: "probe", Clients: 1, Edges: 1, Rounds: 1, GroupRounds: 1, LocalEpochs: 1, LR: 0.1, SampleGroups: 1}
	var werr error
	ms = repeatNS(3, 20*time.Millisecond, func() {
		n, e := felserve.SaveCheckpoint(tmp, spec, st)
		if e != nil && werr == nil {
			werr = e
		}
		size = n
	}) / 1e6
	return ms, size, werr
}

// probeWire measures frame encode and decode throughput for a GlobalModel
// frame of dim parameters, in MB/s of frame bytes.
func probeWire(dim int) (enc, dec float64, err error) {
	msg := &wire.Message{Type: wire.GlobalModel, Round: 1, Floats: make([]float64, dim)}
	for i := range msg.Floats {
		msg.Floats[i] = float64(i) * 1e-3
	}
	var buf bytes.Buffer
	if _, err := wire.Encode(&buf, msg); err != nil {
		return 0, 0, err
	}
	frame := append([]byte(nil), buf.Bytes()...)
	mb := float64(len(frame)) / 1e6
	encNS := repeatNS(5, 20*time.Millisecond, func() {
		buf.Reset()
		if _, e := wire.Encode(&buf, msg); e != nil && err == nil {
			err = e
		}
	})
	decNS := repeatNS(5, 20*time.Millisecond, func() {
		m, e := wire.Decode(bytes.NewReader(frame), len(frame))
		if e == nil && len(m.Floats) != dim {
			e = fmt.Errorf("decoded %d floats, want %d", len(m.Floats), dim)
		}
		if e != nil && err == nil {
			err = e
		}
	})
	return mb / (encNS / 1e9), mb / (decNS / 1e9), err
}

// probeSecagg times one secure-aggregation session of n members over dim
// parameters — every member's masked update plus the server's unmasking —
// and the same session with its last member dropped (Shamir recovery).
func probeSecagg(n, dim int) (sessionMS, recoveryMS float64, err error) {
	q := secagg.DefaultQuantizer()
	thr := int(math.Ceil(2.0 / 3 * float64(n)))
	thr = max(2, min(thr, n))
	update := make([]float64, dim)
	for i := range update {
		update[i] = float64(i%7) * 1e-3
	}
	session := func(drop bool) {
		s := secagg.NewSession(n, dim, thr, 17, q)
		masked := make([][]uint64, n)
		var dropped []int
		for i := 0; i < n; i++ {
			if drop && i == n-1 {
				dropped = append(dropped, i)
				continue
			}
			masked[i] = s.MaskedUpdate(i, update)
		}
		if _, e := s.Aggregate(masked, dropped); e != nil && err == nil {
			err = e
		}
	}
	sessionMS = repeatNS(3, 30*time.Millisecond, func() { session(false) }) / 1e6
	recoveryMS = repeatNS(3, 30*time.Millisecond, func() { session(true) }) / 1e6
	return sessionMS, recoveryMS, err
}

// medianGroupSize is the median size of the formed groups.
func medianGroupSize(groups []*grouping.Group) int {
	sizes := make([]float64, len(groups))
	for i, g := range groups {
		sizes[i] = float64(g.Size())
	}
	return int(median(sizes))
}

// registryTotals reads a metric registry's counters and histogram sums,
// summed over label sets and keyed by family name.
type registryTotals struct {
	counters map[string]int64
	sums     map[string]float64
}

func readRegistry(reg *metrics.Registry) (registryTotals, error) {
	t := registryTotals{counters: map[string]int64{}, sums: map[string]float64{}}
	b, err := reg.JSON()
	if err != nil {
		return t, err
	}
	var doc struct {
		Counters   map[string]int64 `json:"counters"`
		Histograms map[string]struct {
			Sum float64 `json:"sum"`
		} `json:"histograms"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return t, err
	}
	family := func(key string) string {
		if i := strings.IndexByte(key, '{'); i >= 0 {
			return key[:i]
		}
		return key
	}
	for k, v := range doc.Counters {
		t.counters[family(k)] += v
	}
	// Float sums fold in sorted series order, so a reading does not depend
	// on map iteration.
	for _, k := range sortedKeys(doc.Histograms) {
		t.sums[family(k)] += doc.Histograms[k].Sum
	}
	return t, nil
}

// add folds another registry's totals into t.
func (t registryTotals) add(o registryTotals) {
	for k, v := range o.counters {
		t.counters[k] += v
	}
	for _, k := range sortedKeys(o.sums) {
		t.sums[k] += o.sums[k]
	}
}

// sub returns what t counted beyond an earlier reading of the same
// registry.
func (t registryTotals) sub(before registryTotals) registryTotals {
	d := registryTotals{counters: map[string]int64{}, sums: map[string]float64{}}
	for k, v := range t.counters {
		d.counters[k] = v - before.counters[k]
	}
	for k, v := range t.sums {
		d.sums[k] = v - before.sums[k]
	}
	return d
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// removeAll deletes a temporary directory the benchmark created. A failure
// leaves files under the output directory and changes no measurement, so
// it is reported and not fatal.
func removeAll(dir string) {
	if err := os.RemoveAll(dir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: remove", dir, err)
	}
}

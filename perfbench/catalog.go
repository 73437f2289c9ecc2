package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// The catalog is stated once: BENCHMARK.json, at the repository root, names
// the workloads, the end-to-end metrics with their regression bounds and the
// per-layer metrics; perfbench/ledger.json (embedded) adds what
// BENCHMARK.json has no room for — the host the bounds were measured on, the
// measuring rules, and for each per-layer metric the end-to-end metrics and
// workloads it should move. loadCatalog reads both at start-up and refuses a
// pair that does not agree.

// e2eMetric is one end-to-end metric. Bound is the share of the parent's
// median by which the metric may worsen before a change is a regression.
type e2eMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// layerMap is the ledger entry of one per-layer metric: the end-to-end
// metrics it should move, the workloads where it should, and those where a
// change to its layer must read "no change". Note, when set, records what
// the metric was measured to weigh.
type layerMap struct {
	Moves  []string `json:"moves"`
	On     []string `json:"on"`
	NoneOn []string `json:"none_on"`
	Note   string   `json:"note,omitempty"`
}

// layerMetric is one per-layer metric of the traced run.
type layerMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	layerMap
}

type workloadEntry struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string        `json:"command"`
	Paths      []string        `json:"paths"`
	RunSeconds int             `json:"run_seconds"`
	Workloads  []workloadEntry `json:"workloads"`
	EndToEnd   []e2eMetric     `json:"end_to_end"`
	PerLayer   []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// ledger is perfbench/ledger.json.
type ledger struct {
	Host struct {
		NProc      int    `json:"nproc"`
		GoMaxProcs int    `json:"gomaxprocs"`
		Go         string `json:"go"`
		Commit     string `json:"commit"`
	} `json:"host"`
	Rules    map[string]string   `json:"rules"`
	PerLayer map[string]layerMap `json:"per_layer"`
}

//go:embed ledger.json
var ledgerJSON []byte

const (
	wKernel  = "kernel-train"
	wMillion = "million-pop"
	wServed  = "served-fleet"
	wSecure  = "secure-net"
)

// The catalog, filled by loadCatalog.
var (
	workloadNames []string
	workloadWhy   map[string]string
	endToEnd      []e2eMetric
	perLayer      []layerMetric
)

// loadCatalog reads BENCHMARK.json from path and the embedded ledger into
// the catalog. Every workload must have a runner, and the ledger must map
// exactly the per-layer metrics BENCHMARK.json names onto known workloads
// and end-to-end metrics.
func loadCatalog(path string) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	var l ledger
	if err := json.Unmarshal(ledgerJSON, &l); err != nil {
		return fmt.Errorf("ledger.json: %w", err)
	}
	workloadNames, workloadWhy = nil, map[string]string{}
	for _, w := range m.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			return fmt.Errorf("%s: workload %q has no runner", path, w.Name)
		}
		workloadNames = append(workloadNames, w.Name)
		workloadWhy[w.Name] = w.Why
	}
	if len(workloadWhy) != len(workloads) {
		return fmt.Errorf("%s names %d workloads, the benchmark drives %d", path, len(workloadWhy), len(workloads))
	}
	endToEnd = m.EndToEnd
	e2e := map[string]bool{"failed_frac": true}
	for _, e := range endToEnd {
		e2e[e.Name] = true
	}
	perLayer = nil
	for _, p := range m.PerLayer {
		lm, ok := l.PerLayer[p.Name]
		if !ok {
			return fmt.Errorf("ledger.json does not map per-layer metric %s", p.Name)
		}
		for _, mv := range lm.Moves {
			if !e2e[mv] {
				return fmt.Errorf("ledger.json: %s moves unknown end-to-end metric %q", p.Name, mv)
			}
		}
		for _, w := range append(append([]string(nil), lm.On...), lm.NoneOn...) {
			if _, ok := workloadWhy[w]; !ok {
				return fmt.Errorf("ledger.json: %s names unknown workload %q", p.Name, w)
			}
		}
		perLayer = append(perLayer, layerMetric{Name: p.Name, Unit: p.Unit, Better: p.Better, layerMap: lm})
	}
	if len(l.PerLayer) != len(perLayer) {
		var extra []string
		for name := range l.PerLayer {
			if _, ok := catalogUnits(true)[name]; !ok {
				extra = append(extra, name)
			}
		}
		sort.Strings(extra)
		return fmt.Errorf("ledger.json maps metrics %s does not name: %v", path, extra)
	}
	return nil
}

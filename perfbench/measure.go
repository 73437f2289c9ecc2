package main

import (
	"bufio"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/data"
	"repro/internal/grouping"
)

// tailMinBeyond is the sample count a tail percentile must leave above it.
const tailMinBeyond = 10

// tail is the highest integer percentile p of xs that leaves at least
// tailMinBeyond samples strictly above its nearest-rank position, together
// with the value there and the sample count. ok is false when xs holds
// fewer than tailMinBeyond+1 samples, so no percentile qualifies.
type tail struct {
	Percentile int
	Value      float64
	Count      int
}

func tailPercentile(xs []float64) (tail, bool) {
	n := len(xs)
	if n <= tailMinBeyond {
		return tail{Count: n}, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	for p := 99; p >= 1; p-- {
		rank := nearestRank(p, n)
		if n-rank >= tailMinBeyond {
			return tail{Percentile: p, Value: s[rank-1], Count: n}, true
		}
	}
	return tail{Count: n}, false
}

// nearestRank is the 1-based nearest-rank position of percentile p in n
// sorted samples: ceil(p/100 · n), computed in integers.
func nearestRank(p, n int) int {
	r := (p*n + 99) / 100
	if r < 1 {
		r = 1
	}
	return r
}

// median returns the middle value of xs (mean of the two middle values for
// even counts); NaN for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM) from
// /proc/self/status, in MiB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	//lint:ignore dropped-error the file is only read
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, fmt.Errorf("parse VmHWM: %w", err)
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// inputsHash fingerprints the generated inputs a run hands the program: the
// partition's per-client label histograms, in client order, and the group
// assignment (group ID, edge and member IDs). Equal seeds must give equal
// hashes; a different seed must change it.
func inputsHash(clients []*data.Client, groups []*grouping.Group) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		//lint:ignore dropped-error hash.Hash writes never return an error
		h.Write(buf[:])
	}
	for _, c := range clients {
		put(uint64(c.ID))
		put(uint64(c.N))
		for _, v := range c.Counts {
			put(math.Float64bits(v))
		}
	}
	for _, g := range groups {
		put(uint64(g.ID))
		put(uint64(g.Edge))
		for _, c := range g.Clients {
			put(uint64(c.ID))
		}
	}
	return h.Sum64()
}

// sameBits reports Float64bits equality of two parameter vectors.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// Command benchgate is the CI benchmark regression gate: it compares a
// freshly measured BenchmarkRuntimeRawThroughput record (written by the
// benchmark under SS_BENCH_JSON) against the committed baseline and fails
// when the batched dataplane regresses beyond the allowed fraction.
//
// The gate is deliberately one-sided and coarse: CI machines are noisy,
// so only a large sustained drop on the headline transport fails the
// build. The optional -min-spsc-factor gate instead compares two series
// inside the candidate record (spsc vs batched), which is noise-robust
// and holds the single-producer ring to an actual speedup. Other series
// (the *-obs and *-est variants) and the measured observability/estimator
// overheads are reported for the log but never fail the gate on their
// own — each overhead has a dedicated threshold flag that can be enabled
// on quiet hardware.
//
// Usage:
//
//	go run ./cmd/benchgate -baseline BENCH_runtime.json -candidate BENCH_candidate.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

// record mirrors the JSON written by BenchmarkRuntimeRawThroughput. Older
// baselines may lack the obs fields; the gate treats them as absent
// rather than zero.
type record struct {
	Benchmark string             `json:"benchmark"`
	TuplesPer map[string]float64 `json:"tuples_per_sec"`
	ObsOver   map[string]float64 `json:"obs_overhead"`
	// EstOver is the occupancy sampler's throughput cost over the *-obs
	// baseline (the probe-free estimator's only dataplane footprint).
	EstOver map[string]float64 `json:"est_overhead"`
	// ReconfigStallP99Ms is BenchmarkReconfigStall's p99 pause-fence
	// stall, merged into the same record; zero when the benchmark did not
	// run (older baselines), which disables the stall gate.
	ReconfigStallP99Ms float64 `json:"reconfig_stall_p99_ms"`
}

// optRecord mirrors the JSON written by BenchmarkSolverCacheAutoFuse in
// internal/opt: how many steady-state solves a direct solver performs on
// the autofuse workload versus how many the memoizing cache actually
// computes. The ratio is structural (it depends on the candidate count,
// not on wall clock), so unlike the throughput gate it is tight: the
// optimizer claims at least a 2x reduction, and the gate holds it to
// that.
type optRecord struct {
	Benchmark string  `json:"benchmark"`
	Graphs    int     `json:"graphs"`
	Direct    int     `json:"direct_solves"`
	Cached    int     `json:"cached_solves"`
	Ratio     float64 `json:"ratio"`
}

func loadOpt(path string) (*optRecord, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r optRecord
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Cached <= 0 || r.Direct <= 0 {
		return nil, fmt.Errorf("%s: solve counts missing or non-positive", path)
	}
	return &r, nil
}

func load(path string) (*record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r record
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(r.TuplesPer) == 0 {
		return nil, fmt.Errorf("%s: no tuples_per_sec series", path)
	}
	return &r, nil
}

func main() {
	baselinePath := flag.String("baseline", "BENCH_runtime.json", "committed baseline record")
	candidatePath := flag.String("candidate", "", "freshly measured record (required)")
	maxRegression := flag.Float64("max-regression", 0.20, "max allowed fractional drop in batched throughput")
	minSPSCFactor := flag.Float64("min-spsc-factor", 0, "fail unless candidate spsc throughput is at least this multiple of its batched throughput (0 disables)")
	maxObsOverhead := flag.Float64("max-obs-overhead", 0, "fail if candidate obs_overhead exceeds this fraction (0 disables)")
	maxEstOverhead := flag.Float64("max-est-overhead", 0, "fail if the candidate's batched est_overhead (occupancy sampler cost over the obs baseline) exceeds this fraction (0 disables)")
	maxStallFactor := flag.Float64("max-stall-factor", 4.0, "max allowed growth factor of the reconfiguration p99 stall over baseline")
	stallFloorMs := flag.Float64("stall-floor-ms", 1.0, "ignore stall regressions while the candidate p99 stays under this many ms (scheduler noise floor)")
	optBaselinePath := flag.String("opt-baseline", "BENCH_optimizer.json", "committed solver-cache baseline record")
	optCandidatePath := flag.String("opt-candidate", "", "freshly measured solver-cache record (enables the optimizer gate)")
	minOptRatio := flag.Float64("min-opt-ratio", 2.0, "min direct/cached solve ratio for the optimizer gate")
	flag.Parse()

	if *optCandidatePath != "" {
		gateOptimizer(*optBaselinePath, *optCandidatePath, *minOptRatio)
		if *candidatePath == "" {
			fmt.Println("benchgate: ok")
			return
		}
	}
	if *candidatePath == "" {
		fmt.Fprintln(os.Stderr, "benchgate: -candidate is required")
		os.Exit(2)
	}
	base, err := load(*baselinePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: baseline: %v\n", err)
		os.Exit(2)
	}
	cand, err := load(*candidatePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: candidate: %v\n", err)
		os.Exit(2)
	}

	// Report every series both records share, sorted for stable logs.
	keys := make([]string, 0, len(base.TuplesPer))
	for k := range base.TuplesPer {
		if _, ok := cand.TuplesPer[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		b, c := base.TuplesPer[k], cand.TuplesPer[k]
		change := 0.0
		if b > 0 {
			change = c/b - 1
		}
		fmt.Printf("%-14s baseline %12.0f t/s  candidate %12.0f t/s  %+6.1f%%\n", k, b, c, change*100)
	}
	for _, k := range []string{"batched", "spsc"} {
		if ov, ok := cand.ObsOver[k]; ok {
			fmt.Printf("%-14s obs overhead %5.1f%%\n", k, ov*100)
		}
	}
	if ov, ok := cand.EstOver["batched"]; ok {
		fmt.Printf("%-14s est overhead %5.1f%%\n", "batched", ov*100)
	}

	failed := false
	// The gate proper: the batched transport is the dataplane headline
	// (PR 1's ~7x speedup); a large drop there is what the gate exists
	// to catch.
	b, okB := base.TuplesPer["batched"]
	c, okC := cand.TuplesPer["batched"]
	switch {
	case !okB || !okC:
		fmt.Fprintln(os.Stderr, "benchgate: batched series missing from baseline or candidate")
		failed = true
	case b <= 0:
		fmt.Fprintln(os.Stderr, "benchgate: baseline batched throughput is not positive")
		failed = true
	case c < b*(1-*maxRegression):
		fmt.Fprintf(os.Stderr, "benchgate: FAIL batched throughput %.0f t/s is %.1f%% below baseline %.0f t/s (limit %.0f%%)\n",
			c, (1-c/b)*100, b, *maxRegression*100)
		failed = true
	}
	// The SPSC gate is a ratio within the candidate record, not a
	// baseline comparison: both series ran on the same machine in the same
	// process, so host noise largely cancels and the single-producer ring
	// must actually beat the batched MPSC path it specializes.
	if *minSPSCFactor > 0 {
		s, okS := cand.TuplesPer["spsc"]
		switch {
		case !okS || !okC || c <= 0:
			fmt.Fprintln(os.Stderr, "benchgate: FAIL spsc gate enabled but candidate lacks spsc or batched series")
			failed = true
		case s < c**minSPSCFactor:
			fmt.Fprintf(os.Stderr, "benchgate: FAIL spsc throughput %.0f t/s is %.2fx batched %.0f t/s (need %.2fx)\n",
				s, s/c, c, *minSPSCFactor)
			failed = true
		default:
			fmt.Printf("%-14s spsc/batched factor %.2fx (gate %.2fx)\n", "spsc", s/c, *minSPSCFactor)
		}
	}
	if *maxObsOverhead > 0 {
		for k, ov := range cand.ObsOver {
			if ov > *maxObsOverhead {
				fmt.Fprintf(os.Stderr, "benchgate: FAIL %s obs overhead %.1f%% exceeds %.1f%%\n",
					k, ov*100, *maxObsOverhead*100)
				failed = true
			}
		}
	}
	// The estimator gate covers the batched series — the transport the
	// throughput gate also watches.
	if *maxEstOverhead > 0 {
		ov, ok := cand.EstOver["batched"]
		switch {
		case !ok:
			fmt.Fprintln(os.Stderr, "benchgate: FAIL est gate enabled but candidate has no batched est_overhead")
			failed = true
		case ov > *maxEstOverhead:
			fmt.Fprintf(os.Stderr, "benchgate: FAIL batched est overhead %.1f%% exceeds %.1f%%\n",
				ov*100, *maxEstOverhead*100)
			failed = true
		}
	}
	// The reconfiguration stall gate: live ApplyDelta pauses only the
	// rescaled stations, and the fence must stay cheap. Active only when
	// both records carry the metric; sub-millisecond candidates are inside
	// scheduler noise and never fail.
	if base.ReconfigStallP99Ms > 0 && cand.ReconfigStallP99Ms > 0 {
		fmt.Printf("%-14s baseline p99 %8.3f ms  candidate %8.3f ms  %+6.1f%%\n",
			"reconfig-stall", base.ReconfigStallP99Ms, cand.ReconfigStallP99Ms,
			(cand.ReconfigStallP99Ms/base.ReconfigStallP99Ms-1)*100)
		if cand.ReconfigStallP99Ms > *stallFloorMs &&
			cand.ReconfigStallP99Ms > base.ReconfigStallP99Ms**maxStallFactor {
			fmt.Fprintf(os.Stderr, "benchgate: FAIL reconfiguration p99 stall %.3f ms exceeds %.1fx baseline %.3f ms\n",
				cand.ReconfigStallP99Ms, *maxStallFactor, base.ReconfigStallP99Ms)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
	fmt.Println("benchgate: ok")
}

// gateOptimizer enforces the solver-cache claim: the memoizing solver
// must perform at least minRatio times fewer steady-state solves than a
// direct solver on the autofuse workload. Exits non-zero on failure.
func gateOptimizer(baselinePath, candidatePath string, minRatio float64) {
	cand, err := loadOpt(candidatePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: opt candidate: %v\n", err)
		os.Exit(2)
	}
	ratio := float64(cand.Direct) / float64(cand.Cached)
	fmt.Printf("%-14s %d graphs: %d direct solves, %d cached solves, ratio %.2fx\n",
		"solver-cache", cand.Graphs, cand.Direct, cand.Cached, ratio)
	if base, err := loadOpt(baselinePath); err != nil {
		// The baseline is informational for this gate (the ratio bound
		// is absolute), so a missing one is reported but not fatal.
		fmt.Fprintf(os.Stderr, "benchgate: opt baseline: %v (skipping comparison)\n", err)
	} else {
		baseRatio := float64(base.Direct) / float64(base.Cached)
		fmt.Printf("%-14s baseline ratio %.2fx  candidate %+.1f%%\n",
			"solver-cache", baseRatio, (ratio/baseRatio-1)*100)
	}
	if ratio < minRatio {
		fmt.Fprintf(os.Stderr, "benchgate: FAIL solver-cache ratio %.2fx is below the required %.2fx\n",
			ratio, minRatio)
		os.Exit(1)
	}
}

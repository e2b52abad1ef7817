package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	goruntime "runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"spinstreams/internal/core"
	"spinstreams/internal/opt"
	"spinstreams/internal/xmlio"
)

// outcome is what one run reports: operation counts, check violations,
// metric values by name, and the configuration the workload set.
type outcome struct {
	attempted, failed int64
	problems          []string
	metrics           map[string]float64
	config            map[string]string
	notes             []string
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]float64{}, config: map[string]string{}}
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// workload is one named end-to-end workload.
type workload struct {
	name, why string
	run       func(seed uint64, measure time.Duration) (*outcome, error)
}

var workloads = []workload{
	{"chain-max", "closed-loop saturating 4-operator unpadded chain on the default transport: mailboxes, station loops and the generator do the work", runChainMax},
	{"keyed-max", "closed-loop saturating fraud-shaped keyed plan: catalog operators, key partitioning, emitters/collectors and a fan-in inbox do the work", runKeyedMax},
	{"optimize-corpus", "the static tool itself: optimize a fixed corpus of 50-operator Algorithm-5 topologies; the runtime does no work", runOptimizeCorpus},
	{"rescale-live", "saturated keyed plan under a cyclic live rescale schedule: pause fences, table swaps and keyed-state migration", runRescaleLive},
}

// Run-shape constants of the end-to-end workloads.
const (
	setupReps = 51 // set-ups per runtime run; setup_s is their median
	engines   = 5  // fresh engines measured per runtime run
	warmup    = time.Second / 2
)

// quantile returns the nearest-rank q-quantile of sorted values.
func quantile[T int64 | float64](sorted []T, q float64) T {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// liveRSSMB forces a collection that returns free memory to the OS, then
// reads the process's resident set: the memory the workload's live state
// holds, independent of where the collector happened to be.
func liveRSSMB() float64 {
	debug.FreeOSMemory()
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmRSS:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// runtimeWorkload measures s on `engines` fresh engines, each for an
// equal share of the window, and reports medians over them: one engine
// settles into one goroutine-scheduling regime for its whole life, and
// regimes differ by up to 20% in throughput and latency. Latency comes
// from s, or from latSeg engines when given: chain-max times tuples on
// separate stamped engines so that its throughput engines keep the
// dataplane's unbound fast paths. setup_s is the median over setupReps
// start-ups, the measured engines' included.
func runtimeWorkload(s liveSpec, latSeg *liveSpec) (*outcome, []*liveResult, error) {
	var setups, tput, p50, p95, rss []float64
	o := newOutcome()
	reps := s
	reps.noRecord, reps.measure = true, 0
	for i := 0; i < setupReps-engines; i++ {
		r, err := runLive(reps)
		if err != nil {
			return nil, nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		setups = append(setups, r.setup.Seconds())
	}
	var measured []*liveResult
	for i := 0; i < engines; i++ {
		r, err := runLive(s)
		if err != nil {
			return nil, nil, err
		}
		measured = append(measured, r)
		setups = append(setups, r.setup.Seconds())
		tput = append(tput, median(r.rates))
		rss = append(rss, r.rss)
		lr := r
		if latSeg != nil {
			if lr, err = runLive(*latSeg); err != nil {
				return nil, nil, fmt.Errorf("latency engine: %w", err)
			}
			measured = append(measured, lr)
		}
		lat := sorted(lr.lat)
		if len(lat) < 1000 {
			o.problems = append(o.problems, fmt.Sprintf("only %d latency samples", len(lat)))
		}
		p50 = append(p50, float64(quantile(lat, 0.50))/1e3)
		p95 = append(p95, float64(quantile(lat, 0.95))/1e3)
		o.note("engine %d: %.0f tuples/s, latency p50 %.1fus p95 %.1fus p99 %.1fus over %d samples; totals %+v",
			i+1, tput[i], p50[i], p95[i], float64(quantile(lat, 0.99))/1e3, len(lat), r.totals)
	}
	for _, r := range measured {
		o.problems = append(o.problems, checkLive(s.kind, r)...)
		o.attempted += int64(r.totals.Generated)
		o.failed += int64(r.totals.Failed + r.totals.Shed)
	}
	o.config = measured[0].config
	if latSeg != nil {
		for k, v := range measured[1].config {
			o.config["latency engines: "+k] = v
		}
	}
	o.config["engines"] = fmt.Sprint(engines)
	o.metrics["throughput_per_s"] = median(tput)
	o.metrics["latency_p50_us"] = median(p50)
	o.metrics["latency_p95_us"] = median(p95)
	o.metrics["setup_s"] = median(setups)
	o.metrics["rss_mb"] = median(rss)
	return o, measured, nil
}

func runChainMax(seed uint64, measure time.Duration) (*outcome, error) {
	share := measure / engines
	latSeg := liveSpec{kind: "chain", seed: seed, stamped: true, warmup: warmup, measure: share / 3}
	o, _, err := runtimeWorkload(liveSpec{kind: "chain", seed: seed, warmup: warmup, measure: share - share/3}, &latSeg)
	return o, err
}

func runKeyedMax(seed uint64, measure time.Duration) (*outcome, error) {
	o, _, err := runtimeWorkload(liveSpec{kind: "keyed", seed: seed, warmup: warmup, measure: measure / engines}, nil)
	return o, err
}

func runRescaleLive(seed uint64, measure time.Duration) (*outcome, error) {
	o, rs, err := runtimeWorkload(liveSpec{kind: "keyed", seed: seed, rescale: true, warmup: warmup, measure: measure / engines}, nil)
	if err != nil {
		return nil, err
	}
	o.config["ReconfigStallBudget"] = "default"
	var stalls []float64
	failedApplies := 0
	for _, r := range rs {
		for _, a := range r.applies {
			stalls = append(stalls, float64(a.stall)/1e3)
		}
		failedApplies += r.applyErrs
	}
	o.attempted += int64(len(stalls))
	o.failed += int64(failedApplies)
	sort.Float64s(stalls)
	o.note("%d ApplyDelta calls, %d failed; stall p50 %.1fus p90 %.1fus (%d samples above p90)",
		len(stalls), failedApplies, quantile(stalls, 0.5), quantile(stalls, 0.9), len(stalls)/10)
	return o, nil
}

func runOptimizeCorpus(seed uint64, measure time.Duration) (*outcome, error) {
	o := newOutcome()
	docs, err := corpusDocs()
	if err != nil {
		return nil, err
	}
	// Set-up is generating, encoding and decoding the corpus, done in
	// corpusBatches fixed batches; setup_s is the median batch.
	var setups []float64
	topos := make([]*core.Topology, len(docs))
	per := len(docs) / corpusBatches
	for b := 0; b < corpusBatches; b++ {
		t := time.Now()
		for i := b * per; i < (b+1)*per; i++ {
			x, err := generateDoc(docs[i].seed)
			if err != nil {
				return nil, err
			}
			if topos[i], err = xmlio.Read(bytes.NewReader(x)); err != nil {
				return nil, fmt.Errorf("decode topology %d: %w", docs[i].seed, err)
			}
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	o.config["corpus"] = fmt.Sprintf("%d topologies (randtopo seeds %d..%d), %d operators, %d edges", len(docs), corpusBase, corpusBase+corpusSize-1, corpusOps, corpusEdges)
	o.config["opt.Options"] = "defaults (vet pre-pass, analyze, fission, fusion, plan-verification post-pass)"
	var lat []float64
	var busy time.Duration
	fingerprints, unstable := map[uint64]string{}, map[uint64]bool{}
	end := time.Now().Add(warmup + measure)
	measureFrom := time.Now().Add(warmup)
	order := visitOrder(seed)
	for i := 0; time.Now().Before(end); i++ {
		k := order[i%len(order)]
		d := docs[k]
		t := time.Now()
		res, err := opt.Run(topos[k], opt.Options{})
		took := time.Since(t)
		if t.Before(measureFrom) {
			continue
		}
		o.attempted++
		lat = append(lat, float64(took.Nanoseconds())/1e3)
		busy += took
		if err != nil {
			o.failed++
			o.problems = append(o.problems, fmt.Sprintf("topology %d: %v", d.seed, err))
			continue
		}
		if bad := checkOptimized(res, d.want); len(bad) > 0 {
			o.failed++
			o.problems = append(o.problems, fmt.Sprintf("topology %d: %s", d.seed, strings.Join(bad, "; ")))
		}
		if fp, seen := fingerprints[d.seed]; !seen {
			fingerprints[d.seed] = res.Trace.FinalFingerprint
		} else if fp != res.Trace.FinalFingerprint {
			unstable[d.seed] = true
		}
	}
	if len(lat) == 0 {
		return nil, fmt.Errorf("no topology optimized in the measured window")
	}
	o.metrics["rss_mb"] = liveRSSMB()
	goruntime.KeepAlive(topos) // the decoded corpus counts as live state
	sort.Float64s(lat)
	o.metrics["throughput_per_s"] = float64(len(lat)) / busy.Seconds()
	o.metrics["latency_p50_us"] = quantile(lat, 0.50)
	o.metrics["latency_p95_us"] = quantile(lat, 0.95)
	o.metrics["setup_s"] = median(setups)
	o.note("optimized %d topologies; p99 %.0fus; %d corpus topologies gave two different FinalFingerprints",
		len(lat), quantile(lat, 0.99), len(unstable))
	return o, nil
}

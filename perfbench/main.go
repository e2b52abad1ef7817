// Command perfbench is the spinstreams benchmark: four named workloads
// run against the module's packages, each printing its end-to-end metrics
// (--trace 0) or the per-layer ledger (--trace 1), with output checks that
// count as failed operations. The last line of standard output is the
// JSON result. Run it through run.py from the repository root:
//
//	python3 perfbench/run.py --workload keyed-max --seed 1 --seconds 20 --trace 0
//
// --write-spec regenerates BENCHMARK.json from the tables in this package;
// --record-digests regenerates the optimize-corpus output digests.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	goruntime "runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricSpec describes one reported metric. Bound applies to end-to-end
// metrics; Moves names, for a per-layer metric, the end-to-end metric and
// workload it should move.
type metricSpec struct {
	Name, Unit, Better string
	Bound              float64
	Moves              string
}

// endToEnd are reported by every workload with tracing off. Each workload
// defines its unit of work: a tuple on the runtime workloads, one read and
// optimized topology on optimize-corpus. rss_mb is the resident set the
// live state holds at the end of the measured window.
var endToEnd = []metricSpec{
	{Name: "throughput_per_s", Unit: "1/s", Better: "higher", Bound: 0.24},
	{Name: "latency_p50_us", Unit: "us", Better: "lower", Bound: 0.24},
	{Name: "latency_p95_us", Unit: "us", Better: "lower", Bound: 0.24},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "rss_mb", Unit: "MB", Better: "lower", Bound: 0.15},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	wl := fs.String("workload", "", "workload name")
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 10, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer ledger instead of the end-to-end metrics")
	out := fs.String("out", "", "directory for the run record and spans (none when empty)")
	commit := fs.String("commit", "unknown", "commit of the measured sources")
	digest := fs.String("source-digest", "unknown", "digest of the measured sources")
	writeSpec := fs.String("write-spec", "", "write BENCHMARK.json to this path and exit")
	recordDig := fs.String("record-digests", "", "write the optimize-corpus digests to this path and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *writeSpec != "":
		return exitOn(writeSpecFile(*writeSpec))
	case *recordDig != "":
		return exitOn(recordDigests(*recordDig))
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *wl {
			w = &workloads[i]
		}
	}
	if w == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *wl)
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	if goruntime.GOMAXPROCS(0) > goruntime.NumCPU() {
		goruntime.GOMAXPROCS(goruntime.NumCPU())
	}
	measure := time.Duration(*seconds) * time.Second

	var o *outcome
	var sp *spans
	var err error
	specs := endToEnd
	steal0, total0 := hostCPU()
	if *trace == 1 {
		specs = perLayerSpecs()
		o, sp, err = runLedger(*seed, measure)
	} else {
		o, err = w.run(*seed, measure)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	mach := machine(*commit, *digest)
	if steal1, total1 := hostCPU(); total1 > total0 {
		mach["host_steal_pct"] = fmt.Sprintf("%.1f", 100*float64(steal1-steal0)/float64(total1-total0))
	}
	for _, s := range specs {
		if _, ok := o.metrics[s.Name]; !ok {
			o.problems = append(o.problems, "metric not measured: "+s.Name)
		}
	}
	rec := record{
		Workload: w.name, Seed: *seed, Seconds: *seconds, Trace: *trace,
		Machine: mach, Config: o.config, Notes: o.notes, Problems: o.problems,
	}
	res := result{Correct: len(o.problems) == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metric{}}
	if res.Attempted < 1 {
		res.Attempted = 1
		res.Correct = false
	}
	for _, s := range specs {
		res.Metrics[s.Name] = metric{Value: o.metrics[s.Name], Unit: s.Unit}
	}
	rec.Result = res
	if sp != nil {
		rec.Spans = sp.list
	}
	printHuman(stdout, &rec, specs)
	if *out != "" {
		if err := writeRecord(*out, &rec); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func exitOn(err error) int {
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is the full per-run record written under --out.
type record struct {
	Workload string            `json:"workload"`
	Seed     uint64            `json:"seed"`
	Seconds  int               `json:"seconds"`
	Trace    int               `json:"trace"`
	Machine  map[string]string `json:"machine"`
	Config   map[string]string `json:"config"`
	Notes    []string          `json:"notes,omitempty"`
	Problems []string          `json:"problems,omitempty"`
	Result   result            `json:"result"`
	Spans    []span            `json:"spans,omitempty"`
}

// hostCPU returns the host's cumulative steal and total CPU ticks from
// /proc/stat (zeros where it is unreadable). On a virtual machine, steal
// is time the hypervisor ran something else on this machine's CPUs.
func hostCPU() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	for i := 1; i < len(fields); i++ {
		v, err := strconv.ParseUint(fields[i], 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}

// machine records what the numbers cannot be read without.
func machine(commit, digest string) map[string]string {
	m := map[string]string{
		"GOMAXPROCS":    fmt.Sprint(goruntime.GOMAXPROCS(0)),
		"nproc":         fmt.Sprint(goruntime.NumCPU()),
		"go":            goruntime.Version(),
		"goos_goarch":   goruntime.GOOS + "/" + goruntime.GOARCH,
		"commit":        commit,
		"source_digest": digest,
		"cpu":           "unknown",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				m["cpu"] = strings.TrimSpace(v)
				break
			}
		}
	}
	return m
}

func printHuman(w io.Writer, rec *record, specs []metricSpec) {
	fmt.Fprintf(w, "# workload %s seed %d seconds %d trace %d\n", rec.Workload, rec.Seed, rec.Seconds, rec.Trace)
	for _, k := range sortedKeys(rec.Machine) {
		fmt.Fprintf(w, "# machine %s = %s\n", k, rec.Machine[k])
	}
	for _, k := range sortedKeys(rec.Config) {
		fmt.Fprintf(w, "# config %s = %s\n", k, rec.Config[k])
	}
	for _, n := range rec.Notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	for i, p := range rec.Problems {
		if i == 10 {
			fmt.Fprintf(w, "# CHECK FAILED ... and %d more\n", len(rec.Problems)-i)
			break
		}
		fmt.Fprintf(w, "# CHECK FAILED %s\n", p)
	}
	for _, s := range specs {
		m := rec.Result.Metrics[s.Name]
		if s.Moves != "" {
			fmt.Fprintf(w, "# %-44s %14.4f %-6s moves %s\n", s.Name, m.Value, m.Unit, s.Moves)
		} else {
			fmt.Fprintf(w, "# %-44s %14.4f %s\n", s.Name, m.Value, m.Unit)
		}
	}
	fmt.Fprintf(w, "# correct %v attempted %d failed %d\n", rec.Result.Correct, rec.Result.Attempted, rec.Result.Failed)
}

func writeRecord(dir string, rec *record) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", rec.Workload, rec.Seed, rec.Trace)
	return os.WriteFile(filepath.Join(dir, name), append(data, '\n'), 0o644)
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// writeSpecFile writes BENCHMARK.json from the workload and metric tables.
func writeSpecFile(path string) error {
	type wlJSON struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2eJSON struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layerJSON struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	spec := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []wlJSON    `json:"workloads"`
		EndToEnd   []e2eJSON   `json:"end_to_end"`
		PerLayer   []layerJSON `json:"per_layer"`
	}{
		Command:    []string{"python3", "perfbench/run.py"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		spec.Workloads = append(spec.Workloads, wlJSON{w.name, w.why})
	}
	for _, m := range endToEnd {
		spec.EndToEnd = append(spec.EndToEnd, e2eJSON{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayerSpecs() {
		spec.PerLayer = append(spec.PerLayer, layerJSON{m.Name, m.Unit, m.Better})
	}
	data, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runSeconds is the measured length of one run that BENCHMARK.json sets.
const runSeconds = 20

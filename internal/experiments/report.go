package experiments

import (
	"bufio"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"os"
	goruntime "runtime"
	"strconv"
	"strings"
)

// Tabular is implemented by experiment results that can export their data
// series as a table, for CSV output and downstream plotting.
type Tabular interface {
	// Header returns the column names.
	Header() []string
	// TableRows returns the data rows, stringified.
	TableRows() [][]string
}

// WriteCSV exports any tabular result.
func WriteCSV(w io.Writer, t Tabular) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Header()); err != nil {
		return fmt.Errorf("csv: %w", err)
	}
	if err := cw.WriteAll(t.TableRows()); err != nil {
		return fmt.Errorf("csv: %w", err)
	}
	cw.Flush()
	return cw.Error()
}

// RunMeta annotates an exported result. GeneratedAt and ElapsedSeconds
// are the only timing fields: the corpus determinism test zeroes them and
// requires the remaining bytes to be identical across reruns.
type RunMeta struct {
	Scenario       string  `json:"scenario"`
	Seed           uint64  `json:"seed"`
	GeneratedAt    string  `json:"generated_at,omitempty"`
	ElapsedSeconds float64 `json:"elapsed_seconds,omitempty"`
	// Machine records where a wall-clock scenario ran (see Machine).
	Machine string `json:"machine,omitempty"`
}

// Machine describes the host a live measurement ran on: OS/arch, Go
// version, GOMAXPROCS, logical CPU count and, where /proc/cpuinfo
// exists, the CPU model.
func Machine() string {
	s := fmt.Sprintf("%s/%s %s GOMAXPROCS=%d NumCPU=%d", goruntime.GOOS, goruntime.GOARCH,
		goruntime.Version(), goruntime.GOMAXPROCS(0), goruntime.NumCPU())
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return s
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return s + " cpu=" + strings.TrimSpace(v)
		}
	}
	return s
}

// JSONReport is the on-disk JSON schema: run metadata plus the same
// header/rows series the CSV export carries, in the same deterministic
// order (rows come from Tabular implementations that iterate slices, never
// maps).
type JSONReport struct {
	Meta   RunMeta    `json:"meta"`
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
}

// WriteJSON exports any tabular result as an indented JSON report.
func WriteJSON(w io.Writer, meta RunMeta, t Tabular) error {
	rep := JSONReport{Meta: meta, Header: t.Header(), Rows: t.TableRows()}
	if rep.Rows == nil {
		rep.Rows = [][]string{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

func f(x float64) string { return strconv.FormatFloat(x, 'g', 6, 64) }
func d(x int) string     { return strconv.Itoa(x) }

// Header implements Tabular.
func (r *Fig7Result) Header() []string {
	return []string{"topology", "operators", "predicted", "measured", "rel_err"}
}

// TableRows implements Tabular.
func (r *Fig7Result) TableRows() [][]string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			d(row.Topology), d(row.Operators), f(row.Predicted), f(row.Measured), f(row.RelErr),
		})
	}
	return rows
}

// Header implements Tabular.
func (r *Fig8Result) Header() []string { return []string{"operator", "rel_err"} }

// TableRows implements Tabular.
func (r *Fig8Result) TableRows() [][]string {
	rows := make([][]string, 0, len(r.Errors))
	for i, e := range r.Errors {
		rows = append(rows, []string{d(i + 1), f(e)})
	}
	return rows
}

// Header implements Tabular.
func (r *Fig9Result) Header() []string {
	return []string{"topology", "operators", "additional_replicas", "predicted", "measured",
		"rel_err", "ideal", "stateful_blocked", "skew_blocked"}
}

// TableRows implements Tabular.
func (r *Fig9Result) TableRows() [][]string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			d(row.Topology), d(row.Operators), d(row.AdditionalReplicas),
			f(row.Predicted), f(row.Measured), f(row.RelErr),
			strconv.FormatBool(row.Ideal), strconv.FormatBool(row.StatefulBlocked),
			strconv.FormatBool(row.SkewBlocked),
		})
	}
	return rows
}

// Header implements Tabular.
func (r *Fig10Result) Header() []string {
	return []string{"topology", "bound", "replicas", "predicted", "measured"}
}

// TableRows implements Tabular.
func (r *Fig10Result) TableRows() [][]string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		bound := "original"
		switch {
		case row.Bound > 0:
			bound = d(row.Bound)
		case row.Bound < 0:
			bound = "unbounded"
		}
		rows = append(rows, []string{
			d(row.Topology), bound, d(row.Replicas), f(row.Predicted), f(row.Measured),
		})
	}
	return rows
}

// Header implements Tabular.
func (r *TableResult) Header() []string {
	return []string{"phase", "operator", "mu_inv_ms", "delta_inv_ms", "rho"}
}

// TableRows implements Tabular.
func (r *TableResult) TableRows() [][]string {
	var rows [][]string
	add := func(phase string, trs []TableRow) {
		for _, tr := range trs {
			rows = append(rows, []string{phase, tr.Name, f(tr.MuInv), f(tr.DeltaInv), f(tr.Rho)})
		}
	}
	add("before", r.Before)
	add("after", r.After)
	return rows
}

// Header implements Tabular.
func (r *KeyPartResult) Header() []string {
	return []string{"zipf_exp", "greedy_pmax", "hash_pmax", "greedy_replicas", "hash_replicas", "ideal_pmax"}
}

// TableRows implements Tabular.
func (r *KeyPartResult) TableRows() [][]string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			f(row.ZipfExp), f(row.GreedyPMax), f(row.HashPMax),
			d(row.GreedyReps), d(row.HashReps), f(row.IdealPMax),
		})
	}
	return rows
}

// Header implements Tabular.
func (r *BufferResult) Header() []string { return []string{"capacity", "throughput", "rel_err"} }

// TableRows implements Tabular.
func (r *BufferResult) TableRows() [][]string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{d(row.Capacity), f(row.Throughput), f(row.RelErr)})
	}
	return rows
}

// Header implements Tabular.
func (r *LatencyResult) Header() []string {
	return []string{"rho", "predicted_wait", "measured_wait", "rel_err"}
}

// TableRows implements Tabular.
func (r *LatencyResult) TableRows() [][]string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{f(row.Rho), f(row.PredictedWait), f(row.MeasuredWait), f(row.RelErr)})
	}
	return rows
}

// Header implements Tabular.
func (r *LiveResult) Header() []string {
	return []string{"topology", "operators", "predicted", "measured", "rel_err"}
}

// TableRows implements Tabular.
func (r *LiveResult) TableRows() [][]string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			d(row.Topology), d(row.Operators), f(row.Predicted), f(row.Measured), f(row.RelErr),
		})
	}
	return rows
}

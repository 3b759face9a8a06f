// Command bench is the HiDaP benchmark: one workload per run, measured end to
// end through the public API (or flows.Run for the paper's suite), or
// replayed layer by layer with a span around every layer call.
//
//	bash bench/run.sh --workload macro_serve --seed 1 --seconds 20 --trace 0
//
// The workload's inputs are generated from -seed. Set-up is timed several
// times and reported as its median; then the workload repeats in rounds for
// -seconds (at least two rounds), every placement is checked for legality,
// and every round must reproduce the first one's placements exactly. With
// -trace 1 the run replays the workload instead and prints per-layer
// metrics. The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
// A run whose outputs are wrong prints that object with "correct": false
// and exits with status 1.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

func main() {
	name := flag.String("workload", "", "workload to run: table_suite, macro_serve, cold_flat or deep_solve")
	seed := flag.Int64("seed", 1, "seed every input and solver seed derives from (1 for development, 2 held out for claims)")
	seconds := flag.Float64("seconds", 20, "how long to measure")
	trace := flag.Int("trace", 0, "1 replays the workload layer by layer and prints per-layer metrics")
	flag.Parse()
	w, err := workloadByName(*name)
	if err != nil || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "bench: usage: -workload <name> -seed <n> -seconds <s> -trace <0|1>:", err)
		os.Exit(2)
	}
	ctx := context.Background()
	dur := time.Duration(*seconds * float64(time.Second))
	fmt.Println(machine())
	fmt.Printf("# workload %s  seed %d  seconds %g  trace %d\n", w.name, *seed, *seconds, *trace)

	var r *result
	if *trace == 1 {
		path := filepath.Join(".bench_build", fmt.Sprintf("trace-%s-seed%d.json", w.name, *seed))
		r, err = traceRun(ctx, w, fullSize, *seed, dur, path)
		if err == nil {
			fmt.Println("# spans written to", path)
		}
	} else {
		r, err = measure(ctx, w, fullSize, *seed, dur)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if err := r.print(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if !r.correct {
		os.Exit(1)
	}
}

// machine describes where the numbers come from.
func machine() string {
	rev := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				rev = s.Value
			}
		}
	}
	return fmt.Sprintf("# machine: cpus=%d gomaxprocs=%d go=%s os=%s arch=%s rev=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, rev)
}

// result is one run's report.
type result struct {
	defs      []metricDef
	values    map[string]float64
	notes     []string // extra lines for people, not part of the JSON
	attempted int
	failed    int
	correct   bool
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf("# "+format, args...))
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes the notes, one line per metric, then the JSON line.
func (r *result) print(w io.Writer) error {
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	ms := map[string]jsonMetric{}
	for _, d := range r.defs {
		v := r.values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is not finite: %v", d.name, v)
		}
		ms[d.name] = jsonMetric{Value: v, Unit: d.unit}
		fmt.Fprintf(w, "%-24s %16.6f %s\n", d.name, v, d.unit)
	}
	line, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{r.correct, r.attempted, r.failed, ms})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}

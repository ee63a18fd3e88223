// Command bench is the repository's one benchmark: five named workloads
// over the three engines and availd, end-to-end metrics from an untraced
// run, per-layer metrics from a traced run, correctness checked inside the
// run. See README.md in this directory; BENCHMARK.json at the repository
// root declares the workloads, the metrics and their regression bounds.
//
//	go run ./bench                       every workload, both runs
//	go run ./bench -workload mc_run      one workload, both runs
//	go run ./bench -out a.json           also write the report
//	go run ./bench -compare a.json b.json
//
// The benchmark driver calls
// `go run ./bench --workload W --seed N --seconds S --trace 0|1` and reads
// the last line of standard output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"
)

// envInfo records the machine and commit a report was taken on.
type envInfo struct {
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Start      string `json:"start"`
}

// report is the one schema: -out writes it, -compare reads two of them.
type report struct {
	Env       envInfo                   `json:"env"`
	Workloads map[string]workloadResult `json:"workloads"`
}

// driverLine is the last line of standard output.
type driverLine struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		seed     = flag.Int64("seed", defaultSeed, "benchmark seed; every Monte Carlo seed and query string derives from it")
		name     = flag.String("workload", "", "run one workload (default: all five)")
		seconds  = flag.Int("seconds", 20, "measured seconds per run")
		trace    = flag.Int("trace", -1, "0: untraced run (end-to-end metrics); 1: traced run (per-layer metrics); default both")
		traceOut = flag.String("trace-out", "", "write the traced runs' spans to this file as JSON lines")
		out      = flag.String("out", "", "write the report to this file")
		compare  = flag.Bool("compare", false, "compare two reports: -compare a.json b.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare a.json b.json")
			return 2
		}
		return compareFiles(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1))
	}
	if flag.NArg() != 0 || *seconds < 1 || *trace < -1 || *trace > 1 {
		flag.Usage()
		return 2
	}
	selected := workloads
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: no workload %q\n", *name)
			return 2
		}
		selected = []workload{w}
	}

	rep := report{
		Env: envInfo{
			CPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
			Commit: gitCommit(), Seed: *seed, Seconds: *seconds,
			Start: time.Now().UTC().Format(time.RFC3339),
		},
		Workloads: map[string]workloadResult{},
	}
	g := gen{seed: *seed}
	var spans []workloadSpans
	last := driverLine{Correct: true, Metrics: map[string]value{}}
	for _, w := range selected {
		var res workloadResult
		if *trace != 1 {
			res = runUntraced(w, g, *seconds)
		}
		if *trace != 0 {
			tr := newTracer()
			traced := runTraced(w, g, *seconds, tr)
			spans = append(spans, workloadSpans{w.name, tr.snapshot()})
			if *trace == 1 {
				res = traced
			} else {
				res.PerLayer = traced.PerLayer
				res.Attempted += traced.Attempted
				res.Failed += traced.Failed
				res.Errors = append(res.Errors, traced.Errors...)
				res.Correct = res.Correct && traced.Correct
			}
		}
		rep.Workloads[w.name] = res
		printResult(w.name, res)
		last.Correct = last.Correct && res.Correct
		last.Attempted += res.Attempted
		last.Failed += res.Failed
		for k, v := range res.EndToEnd {
			last.Metrics[k] = v
		}
		for k, v := range res.PerLayer {
			last.Metrics[k] = v
		}
	}

	code := 0
	if !last.Correct {
		code = 1
	}
	if *out != "" {
		if err := writeJSON(*out, rep); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			code = 1
		}
	}
	if *traceOut != "" {
		if err := writeSpans(*traceOut, spans); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			code = 1
		}
	}
	if len(selected) == 1 {
		line, err := json.Marshal(last)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		fmt.Println(string(line))
	}
	return code
}

// gitCommit asks git for the checkout's commit; a checkout that is not a
// repository reports "unknown".
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// printResult prints every metric of a workload by name, with its unit.
func printResult(name string, res workloadResult) {
	fmt.Printf("%s: correct=%v attempted=%d failed=%d", name, res.Correct, res.Attempted, res.Failed)
	if res.Samples > 0 {
		fmt.Printf(" timed_ops=%d", res.Samples)
	}
	fmt.Println()
	for _, e := range res.Errors {
		fmt.Printf("  error: %s\n", e)
	}
	for _, m := range []map[string]value{res.EndToEnd, res.PerLayer} {
		names := make([]string, 0, len(m))
		for k := range m {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			fmt.Printf("  %-40s %14.6g %s\n", k, m[k].Value, m[k].Unit)
		}
	}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

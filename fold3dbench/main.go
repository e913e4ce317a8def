// Command fold3dbench is fold3d's one benchmark. It drives the program
// through its public packages on one of three workloads, checks every
// output against run-to-run determinism and golden fingerprints, and prints
// one JSON result line:
//
//	fold3dbench --workload chip-s100 --seed 1 --seconds 25 --trace 0
//
// --trace 0 measures the end-to-end metrics with no instrumentation beyond
// request timing; --trace 1 measures the per-layer metrics, holding spans in
// memory and writing them at the end as Chrome trace-event JSON. README.md
// describes the workloads and every metric; run.sh builds and runs it.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
)

// outDir receives the Chrome traces, relative to the working directory (the
// checkout root when started through run.sh).
const outDir = ".bench_build/fold3dbench"

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps metric names to measurements.
type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// result is the last line of standard output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// options are the command-line settings shared by every workload.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
}

// outcome is what a workload run hands back to main.
type outcome struct {
	attempted, failed int
	// failures explains each failed count, one line each.
	failures []string
	// endToEnd is filled by untraced runs, perLayer by traced runs.
	endToEnd, perLayer metrics
	// fingerprint digests the run's checked outputs, for the golden file.
	fingerprint string
	spans       *recorder
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	o.failures = append(o.failures, fmt.Sprintf(format, args...))
}

// workload is one benchmark scenario.
type workload struct {
	name string
	why  string
	run  func(ctx context.Context, opt options) (*outcome, error)
}

var workloads = []workload{
	{"chip-s100", "exp.Table5 at t2 scale 100: per-block implementation of three full chips dominates; the cache barely helps", runChipS100},
	{"serve-warm", "fold3dd in process, two closed-loop HTTP clients, small experiments on a warm cache: folding, hashing, restores and serving dominate", runServeWarm},
	{"thermal-analytical", "the thermal study with the analytical placer at scale 300: the only workload running the Nesterov placer and the multigrid thermal engine", runThermalAnalytical},
}

func main() { os.Exit(run()) }

func run() int {
	var opt options
	var trace int
	fs := flag.NewFlagSet("fold3dbench", flag.ContinueOnError)
	fs.StringVar(&opt.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	fs.Uint64Var(&opt.seed, "seed", 1, "input seed (>= 1); the same seed gives the same inputs")
	fs.Float64Var(&opt.seconds, "seconds", 20, "length of the timed window in seconds")
	fs.IntVar(&trace, "trace", 0, "0 measures end-to-end metrics, 1 per-layer metrics")
	list := fs.Bool("list", false, "print the workload names and why each exists, then exit")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	if *list {
		for _, w := range workloads {
			fmt.Printf("%s\t%s\n", w.name, w.why)
		}
		return 0
	}
	opt.trace = trace == 1
	var w *workload
	for i := range workloads {
		if workloads[i].name == opt.workload {
			w = &workloads[i]
		}
	}
	switch {
	case w == nil:
		fmt.Fprintf(os.Stderr, "fold3dbench: unknown workload %q (have %s)\n", opt.workload, strings.Join(workloadNames(), ", "))
		return 2
	case opt.seed == 0:
		fmt.Fprintln(os.Stderr, "fold3dbench: --seed must be >= 1")
		return 2
	case !(opt.seconds > 0), trace != 0 && trace != 1:
		fmt.Fprintln(os.Stderr, "fold3dbench: --seconds must be > 0 and --trace 0 or 1")
		return 2
	}

	env := runEnv()
	fmt.Printf("env: workload=%s seed=%d seconds=%g trace=%d nproc=%d gomaxprocs=%d go=%s commit=%s\n",
		opt.workload, opt.seed, opt.seconds, trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), env["commit"])

	out, err := w.run(context.Background(), opt)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fold3dbench: %s: %v\n", w.name, err)
		return 1
	}
	if g, ok := golden(w.name, opt.seed); ok && g != out.fingerprint {
		out.fail("fingerprint %s differs from the golden %s for seed %d", out.fingerprint, g, opt.seed)
	}
	for _, f := range out.failures {
		fmt.Printf("FAIL: %s\n", f)
	}

	res := result{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed, Metrics: out.endToEnd}
	if opt.trace {
		res.Metrics = out.perLayer
		if err := writeTrace(out.spans, w.name, opt.seed, env); err != nil {
			fmt.Fprintf(os.Stderr, "fold3dbench: writing trace: %v\n", err)
			return 1
		}
	}
	printSummary(out, res)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fold3dbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// printSummary prints every metric by name with its unit, the failure
// share and the output fingerprint, one per line, before the result line.
func printSummary(out *outcome, res result) {
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Printf("%-22s %14.6g %s\n", name, m.Value, m.Unit)
	}
	fmt.Printf("%-22s %14.6g ratio (%d of %d)\n", "failed_frac", float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	fmt.Printf("fingerprint: %s\n", out.fingerprint)
}

// runEnv records the host and build facts every run is logged with.
func runEnv() map[string]string {
	// Ask git only inside a checkout's own .git, never a parent directory's.
	commit := "unknown"
	if _, err := os.Stat(".git"); err == nil {
		if b, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			commit = strings.TrimSpace(string(b))
		}
	}
	return map[string]string{
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"commit":     commit,
	}
}

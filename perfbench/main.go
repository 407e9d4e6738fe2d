// Command perfbench is the repository's benchmark: it starts real bloomrfd
// processes, drives one workload against them from this process over at
// most two connections, checks every answer, and prints the end-to-end
// metrics (or, with -trace 1, the per-layer ones) as the last line of its
// standard output. Run it through run.sh, which builds both programs from
// the checkout first:
//
//	bash perfbench/run.sh --workload durable-mix --seed 7 --seconds 12 --trace 0
//
// The workloads, their sizes and rates, and what each metric means are
// listed in BENCHMARK.json at the repository root.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"syscall"
)

// clientProcs is the GOMAXPROCS the load generator runs with.
const clientProcs = 2

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	bloomrfd string
	workdir  string
	results  string
	root     string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var opt options
	var trace int
	flag.StringVar(&opt.workload, "workload", "", "workload to run (see BENCHMARK.json)")
	flag.Int64Var(&opt.seed, "seed", 1, "input seed; the same seed gives the same inputs")
	flag.IntVar(&opt.seconds, "seconds", 12, "length of the timed phase in seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced per-layer variant")
	flag.StringVar(&opt.bloomrfd, "bloomrfd", "", "path of the bloomrfd binary under test")
	flag.StringVar(&opt.workdir, "workdir", "", "directory for server data and logs (emptied after the run)")
	flag.StringVar(&opt.results, "results", "", "directory for the full report and spans")
	flag.StringVar(&opt.root, "root", ".", "root of the checkout under test (for the host block)")
	flag.Parse()
	opt.trace = trace == 1
	if opt.bloomrfd == "" || opt.workdir == "" || opt.results == "" || opt.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -bloomrfd, -workdir, -results, -seconds ≥ 1 and -trace 0|1 are required; use run.sh")
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	res, err := run(ctx, opt)
	stop()
	if res != nil {
		out, jerr := json.Marshal(res)
		if jerr != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", jerr)
			os.Exit(1)
		}
		fmt.Println(string(out))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run executes one benchmark run. A correctness failure returns both a
// result (correct=false) and an error; any other failure returns no result.
func run(ctx context.Context, opt options) (*result, error) {
	w, err := findWorkload(opt.workload)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(opt.workdir, fmt.Sprintf("%s-%d-%d", w.Name, opt.seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("creating work directory: %w", err)
	}
	defer os.RemoveAll(dir)
	if err := os.MkdirAll(opt.results, 0o755); err != nil {
		return nil, fmt.Errorf("creating results directory: %w", err)
	}
	b := newBench(opt, w, dir)
	defer b.p.stopAll()
	host := collectHost(opt.root, w.Name, opt.seed, opt.seconds, opt.trace)
	hostLine, _ := json.Marshal(map[string]any{"host": host})
	fmt.Println(string(hostLine))

	// The load generator keeps the same footprint on any host — at most
	// clientProcs Ps — and collects garbage rarely, so that its own pauses
	// do not add to the latencies it measures.
	procs := runtime.GOMAXPROCS(clientProcs)
	debug.SetGCPercent(400)
	runErr := b.runE2E(ctx)
	runtime.GOMAXPROCS(procs)
	debug.SetGCPercent(100)
	if runErr == nil && opt.trace {
		b.p.stopAll()
		runErr = b.runLayers(ctx)
	}
	var gate *gateError
	if runErr != nil && !errors.As(runErr, &gate) {
		return nil, runErr
	}
	res := &result{Correct: runErr == nil, Attempted: b.attempted, Failed: b.failed, Metrics: b.e2e}
	declared := e2eMetrics
	if opt.trace {
		res.Metrics, declared = b.layer, layerMetrics
	}
	if runErr == nil {
		if err := checkMetrics(res.Metrics, declared); err != nil {
			return nil, err
		}
	}
	b.printReport(host)
	if err := b.writeReport(host, res); err != nil {
		return nil, err
	}
	return res, runErr
}

// gateError is a correctness gate failure: a false negative, a lost
// acknowledged write or a read-your-writes violation.
type gateError struct{ err error }

func (g *gateError) Error() string { return "correctness gate failed: " + g.err.Error() }
func (g *gateError) Unwrap() error { return g.err }

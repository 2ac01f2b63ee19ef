// Command perfbench is the repository's end-to-end benchmark.  One command
// runs any of its workloads from a seed, checks every answer the engine gives
// against a model or the reference evaluator, and prints the workload's
// metrics as one JSON object on the last line of standard output:
//
//	go run . --workload bank-mix-1k --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics a user of the engine sees;
// with --trace 1 it replays the same seeded operation stream in process
// through the engine's layers, records a span around every layer call, and
// reports per-layer metrics instead.  README.md says why each workload exists
// and which layer each should move.
//
// All load comes from one goroutine, so the interleaving of sessions,
// and with it the conflict count, depends only on the seed.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// outDir holds the span dumps of traced runs, relative to the directory the
// benchmark runs from.
const outDir = ".bench_build/perfbench"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses the arguments, measures the workload and prints the result; it
// returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed the workload's inputs and operation stream are made from")
	seconds := fs.Int("seconds", 10, "how long to measure, in seconds")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced in-process replay, 0 end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	budget := time.Duration(*seconds) * time.Second

	var (
		res result
		err error
	)
	if *trace == 1 {
		res, err = measureLayers(w, *seed, budget)
	} else {
		res, err = measureEndToEnd(w, *seed, budget)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		if !errors.Is(err, errCheck) {
			return 1
		}
		// A wrong answer is a result: report the run as incorrect.
		res = result{Correct: false, Attempted: 1, Failed: 1, Metrics: map[string]metric{}}
	}
	if err := recordEnvironment(stderr, w.name, *seed, *trace, res); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// result is the benchmark's output object.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// HostScale is the factor the end-to-end timings were scaled by for
	// the host's speed (speed.go); it is recorded with the environment.
	HostScale float64 `json:"-"`
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// environment is recorded next to every result: the numbers mean little
// without the machine and build that produced them.
type environment struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Trace      int     `json:"trace"`
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	Commit     string  `json:"commit"`
	HostScale  float64 `json:"host_scale,omitempty"`
	Result     result  `json:"result"`
}

// recordEnvironment writes the environment and result to standard error as
// one JSON line.
func recordEnvironment(stderr io.Writer, workload string, seed int64, trace int, res result) error {
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	env := environment{
		Workload:   workload,
		Seed:       seed,
		Trace:      trace,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Commit:     commit,
		HostScale:  res.HostScale,
		Result:     res,
	}
	data, err := json.Marshal(env)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(stderr, string(data))
	return err
}

// workloadNames lists the workloads in a stable order.
func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// errCheck marks a wrong answer from the engine, as opposed to a failure of
// the benchmark itself.
var errCheck = errors.New("wrong answer")

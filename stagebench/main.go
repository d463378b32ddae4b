// Command stagebench is the repository's benchmark: it runs one named
// workload of the TENDS pipeline in this process, times the calls into each
// layer's public functions from outside, checks every output, and prints one
// JSON result line whose metrics are the ones BENCHMARK.json lists.
//
// Usage, from the repository root:
//
//	bash stagebench/run.sh --workload scale-1e4 --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics, measured with no recorder
// attached; --trace 1 runs the workload once untraced and once traced and
// reports the per-layer metrics. See stagebench/README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// workloadFunc runs one workload and returns its outcome. Errors are reserved
// for set-up failures; a failing call or check inside the measured loop is a
// failed operation of the outcome.
type workloadFunc func(ctx context.Context, a args) (*outcome, error)

var workloads = map[string]workloadFunc{
	"paper-pipeline": runPaperPipeline,
	"scale-1e4":      func(ctx context.Context, a args) (*outcome, error) { return runScale(ctx, a, 10_000) },
	"scale-1e5":      func(ctx context.Context, a args) (*outcome, error) { return runScale(ctx, a, 100_000) },
	"stream-ingest":  runStreamIngest,
}

// args are the benchmark's command-line inputs.
type args struct {
	seed    int64
	seconds time.Duration
	trace   bool
}

// morePasses reports whether a run that has measured done passes since
// start measures another: an untraced run measures at least minPasses and
// until --seconds have passed, and its end-to-end times are medians over
// passes. A traced run measures one untraced pass, then one traced pass of
// its own.
func (a args) morePasses(done, minPasses int, start time.Time) bool {
	return !a.trace && (done < minPasses || time.Since(start) < a.seconds)
}

// outcome is what a workload run reports: operation counts and the metric
// values of the requested kind, keyed by their BENCHMARK.json names.
type outcome struct {
	attempted int
	failed    int
	metrics   map[string]float64
}

// fail counts one failed operation and says why on standard error.
func (o *outcome) fail(format string, a ...any) {
	o.failed++
	fmt.Fprintf(os.Stderr, "stagebench: check failed: "+format+"\n", a...)
}

func main() {
	workload := flag.String("workload", "", "workload name (see BENCHMARK.json)")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "measured time per run, in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics untraced; 1: per-layer metrics from a traced run")
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "stagebench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds, trace int) error {
	spec, err := readSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	fn, ok := workloads[workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", workload)
	}
	if seconds < 1 || (trace != 0 && trace != 1) {
		return fmt.Errorf("--seconds must be positive and --trace 0 or 1")
	}
	mach := probeMachine()
	line, err := json.Marshal(map[string]any{"machine": mach})
	if err != nil {
		return err
	}
	fmt.Println(string(line))

	a := args{seed: seed, seconds: time.Duration(seconds) * time.Second, trace: trace == 1}
	out, err := fn(context.Background(), a)
	if err != nil {
		return fmt.Errorf("%s: %w", workload, err)
	}
	if a.trace {
		out.metrics["machine.calib_s"] = mach.CalibS
		out.metrics["machine.nproc"] = float64(mach.NProc)
		out.metrics["machine.gomaxprocs"] = float64(mach.GOMAXPROCS)
	}
	kind := spec.EndToEnd
	if a.trace {
		kind = spec.PerLayer
	}
	metrics, err := selectMetrics(kind, out.metrics, a.trace)
	if err != nil {
		return err
	}
	line, err = json.Marshal(map[string]any{
		"correct":   out.failed == 0,
		"attempted": out.attempted,
		"failed":    out.failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// metricSpec is one metric entry of BENCHMARK.json.
type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// readSpec loads the metric names and units from BENCHMARK.json, so that the
// program prints exactly the metrics the file declares.
func readSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read metric list: %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &s, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// selectMetrics pairs each listed metric with its measured value. A value the
// workload produced but the list lacks is a bug in this program. An
// end-to-end metric must be measured on every workload; a per-layer metric
// whose layer the workload does not exercise reads 0.
func selectMetrics(list []metricSpec, values map[string]float64, perLayer bool) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(list))
	listed := make(map[string]bool, len(list))
	for _, m := range list {
		listed[m.Name] = true
		v, ok := values[m.Name]
		if !ok && !perLayer {
			return nil, fmt.Errorf("end-to-end metric %s was not measured", m.Name)
		}
		out[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	for name := range values {
		if !listed[name] {
			return nil, fmt.Errorf("metric %s is not listed in BENCHMARK.json", name)
		}
	}
	return out, nil
}

// machineState is printed before the result on every run so that drift
// between two sets of runs is visible. The calibration time is reported,
// never used to rescale a metric.
type machineState struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CalibS     float64 `json:"calib_s"`
}

func probeMachine() machineState {
	times := make([]float64, 3)
	for i := range times {
		start := time.Now()
		calibSink += calibLoop(20_000_000)
		times[i] = time.Since(start).Seconds()
	}
	return machineState{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CalibS:     median(times),
	}
}

var calibSink uint64

// calibLoop is a fixed, single-threaded integer workload: iters rounds of
// the SplitMix64 finalizer, each depending on the previous one.
func calibLoop(iters int) uint64 {
	x := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < iters; i++ {
		x = splitmix64(x)
	}
	return x
}

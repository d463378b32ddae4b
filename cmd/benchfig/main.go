// Command benchfig regenerates the paper's evaluation figures. Each figure
// is a parameter sweep over a workload with the algorithms the paper
// compares; the output is the same pair of series each figure plots —
// F-score and running time per sweep point per algorithm.
//
// Usage:
//
//	benchfig -fig 1            # regenerate Figure 1
//	benchfig -all              # all figures (long!)
//	benchfig -fig 4 -repeats 3 # average over 3 simulation repeats
//	benchfig -fig 8 -csv out.csv
//	benchfig -all -workers 8   # run up to 8 cells concurrently
//	benchfig -fig 1 -checkpoint run.journal # journal completed cells
//	benchfig -fig 1 -resume run.journal     # skip cells already journaled
//	benchfig -fig 1 -resume run.journal -resume-strict  # a damaged journal aborts instead
//	benchfig -all -progress                 # throttled cells-done/ETA line
//	benchfig -fig 4 -obs-json obs.json      # dump phase timings and counters
//	benchfig -all -pprof localhost:6060     # live CPU/heap profiles
//	benchfig -fig 1 -chaos "experiments.cell.infer=0.2" -chaos-seed 7 -retries 2
//	benchfig -fig 1 -node-deadline 50ms -combo-budget 5000   # degrade, don't hang
//	benchfig -fig 1 -retries 3 -retry-backoff 100ms -breaker 2
//
// Scenario overrides rerun any figure under different diffusion dynamics or
// dirty observations (figures 12–15 are dedicated scenario sweeps; an
// override never flattens the axis a figure itself sweeps):
//
//	benchfig -fig 4 -model sir -recovery 0.5        # Fig 4 under SIR dynamics
//	benchfig -fig 4 -model sis -recovery 0.5 -reinfect 0.3
//	benchfig -fig 6 -delay rayleigh                 # Rayleigh transmission delays
//	benchfig -fig 12 -csv miss.csv                  # F vs missing-rate family
//	benchfig -fig 8 -missing 0.2 -uncertain 0.1     # dirty observations
//
// Scale-study mode (large-n LFR, sparse engine, optional sharding):
//
//	benchfig -scale -scale-n 100000 -sparse           # one big run end to end
//	benchfig -scale -scale-n 100000 -sparse -shard 0/4 -checkpoint s0.journal
//	benchfig -scale -scale-n 100000 -sparse -shard 1/4 -checkpoint s1.journal  # ... one process per shard
//	benchfig -scale -scale-n 100000 -sparse -merge 'shards/*.journal'   # globs allowed
//	benchfig -scale -scale-n 100000 -sparse -merge 'shards/*.journal' -merge-degraded  # partial set OK
//
// Every shard regenerates the identical workload from -seed and computes the
// identical global threshold, so the merged topology is byte-identical to an
// unsharded run; the merge cross-checks headers and refuses mismatched or
// truncated journals. -merge validates shard-set completeness up front and
// names the missing indices; -merge-degraded merges an incomplete set into
// the partial topology plus an explicit missing-node report (exit 3).
//
// Supervised distributed runs launch, monitor, and heal the shard workers
// in one command — crashed or stalled workers restart with node-level journal
// resume, stragglers get hedged duplicate launches, and a shard that exhausts
// its retry budget degrades the merge instead of failing it:
//
//	benchfig -scale -scale-n 100000 -sparse -supervise 4
//	benchfig -scale -supervise 4 -shard-retries 3 -shard-deadline 10m -stall-timeout 30s
//	benchfig -scale -supervise 4 -hedge-after 2m -supervise-report report.json
//	benchfig -scale -supervise 4 -chaos "supervise.worker.kill=0.05" -chaos-seed 7
//
// Each (point, repeat) workload is generated once and shared by every
// compared algorithm; -workers bounds how many (point, repeat, algorithm)
// cells run concurrently (0 = all CPUs). Results for a fixed -seed are
// identical at any worker count, runtimes excepted.
//
// The harness is fault tolerant: a panicking or failing algorithm run is
// contained to its cell (rendered ERR, retried per -retries with -retry-backoff
// exponential delays, and a -breaker circuit breaker that stops retrying a cell
// class once enough of its tasks have exhausted every attempt), -cell-timeout
// bounds each cell's runtime, and SIGINT/SIGTERM cancels the sweep cleanly —
// in-flight cells are drained, the checkpoint journal and partial output are
// flushed, and the process exits with status 130. A later -resume run
// restores journaled cells and reproduces the uninterrupted tables for the
// rest. Exit status: 0 success, 1 error, 3 completed but some cells never
// produced a score, 130 interrupted.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"tends/internal/chaos"
	"tends/internal/datasets"
	"tends/internal/experiments"
	"tends/internal/graph"
	"tends/internal/obs"
)

// Exit codes of the benchfig process.
const (
	exitOK          = 0
	exitErr         = 1
	exitFailedCells = 3   // sweep completed, but some cells never produced a score
	exitInterrupted = 130 // cancelled by SIGINT/SIGTERM (128 + SIGINT)
)

// runOpts carries the flag values of one benchfig invocation.
type runOpts struct {
	figNum       int
	all          bool
	repeats      int
	seed         int64
	csvPath      string
	algos        string
	quiet        bool
	workers      int
	cellTimeout  time.Duration
	retries      int
	checkpoint   string
	resume       string
	resumeStrict bool
	obsJSON      string
	progress     bool
	pprofAddr    string

	chaosSpec    string
	chaosSeed    int64
	nodeDeadline time.Duration
	comboBudget  int
	retryBackoff time.Duration
	breaker      int

	// Scenario overrides; empty strings and negative floats mean "keep the
	// figure's own value" (see experiments.ScenarioOverride).
	model      string
	delay      string
	delayParam float64
	recovery   float64
	reinfect   float64
	missing    float64
	uncertain  float64
}

func main() {
	var o runOpts
	var (
		ablation = flag.String("ablation", "", "run an ablation instead: threshold, greedy, pruning, penalty, treemodel")
		ext      = flag.String("ext", "", "run an extension study instead: noise, missing, mismatch, timestamps")
	)
	flag.IntVar(&o.figNum, "fig", 0, "figure number to regenerate (1..16)")
	flag.BoolVar(&o.all, "all", false, "regenerate every figure")
	flag.IntVar(&o.repeats, "repeats", 1, "simulation repeats averaged per point")
	flag.Int64Var(&o.seed, "seed", 1, "base RNG seed")
	flag.StringVar(&o.csvPath, "csv", "", "also write raw measurements as CSV")
	flag.StringVar(&o.algos, "algos", "", "comma-separated algorithm override, e.g. TENDS,NetInf,PATH")
	flag.IntVar(&o.workers, "workers", 0, "concurrent harness cells (0 = all CPUs, 1 = serial)")
	flag.BoolVar(&o.quiet, "quiet", false, "suppress per-cell progress output")
	flag.DurationVar(&o.cellTimeout, "cell-timeout", 0, "per-cell algorithm deadline, e.g. 2m (0 = none)")
	flag.IntVar(&o.retries, "retries", 0, "re-run a failed cell repeat up to this many times with fresh derived seeds")
	flag.StringVar(&o.checkpoint, "checkpoint", "", "append completed cells to this checkpoint journal")
	flag.StringVar(&o.resume, "resume", "", "restore completed cells from this checkpoint journal and continue it")
	flag.BoolVar(&o.resumeStrict, "resume-strict", false, "refuse to resume from a damaged journal (exit non-zero) instead of truncating it and recomputing the lost cells")
	flag.StringVar(&o.obsJSON, "obs-json", "", "write an observability snapshot (counters, gauges, phase timings) as JSON to this file")
	flag.BoolVar(&o.progress, "progress", false, "print a throttled cells-done/ETA line to stderr")
	flag.StringVar(&o.pprofAddr, "pprof", "", "serve net/http/pprof on this address, e.g. localhost:6060")
	flag.StringVar(&o.chaosSpec, "chaos", "", `inject deterministic faults: "site=rate,site:kind=rate,..." (kinds: error, panic, delay; sites: `+strings.Join(chaos.Sites(), ", ")+")")
	flag.Int64Var(&o.chaosSeed, "chaos-seed", 1, "seed for the chaos injector's fault decisions (independent of -seed)")
	flag.DurationVar(&o.nodeDeadline, "node-deadline", 0, "soft per-node TENDS search deadline; breaching nodes keep best-so-far parents (0 = none)")
	flag.IntVar(&o.comboBudget, "combo-budget", 0, "cap on parent combinations scored per TENDS node; breaching nodes degrade (0 = none)")
	flag.DurationVar(&o.retryBackoff, "retry-backoff", 0, "base delay before cell retries, doubled per attempt with seeded jitter (0 = immediate)")
	flag.IntVar(&o.breaker, "breaker", 0, "stop retrying a (point, algorithm) cell class after this many tasks exhaust every attempt (0 = never)")
	flag.StringVar(&o.model, "model", "", "diffusion model override: ic, lt, sir, sis (empty = figure default)")
	flag.StringVar(&o.delay, "delay", "", "transmission-delay law override: exp, powerlaw, rayleigh (empty = figure default)")
	flag.Float64Var(&o.delayParam, "delay-param", -1, "delay-law parameter: exp rate, power-law shape, Rayleigh sigma (negative = law default)")
	flag.Float64Var(&o.recovery, "recovery", -1, "SIR/SIS per-round probability an infectious node stays infectious, in [0,1) (negative = keep)")
	flag.Float64Var(&o.reinfect, "reinfect", -1, "SIS probability a recovering node returns to susceptible, in [0,1] (negative = keep)")
	flag.Float64Var(&o.missing, "missing", -1, "missing-observation rate in [0,1] applied after simulation (negative = keep)")
	flag.Float64Var(&o.uncertain, "uncertain", -1, "uncertain-observation rate in [0,1] applied after simulation (negative = keep)")
	var s scaleOpts
	registerScaleFlags(&s)
	flag.Parse()

	if s.run || s.shardSpec != "" || s.mergeSpec != "" || s.superviseK > 0 {
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		code, err := runScale(ctx, o, s)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchfig: %v\n", err)
			if code == exitOK {
				code = exitErr
			}
		}
		os.Exit(code)
	}

	if *ablation != "" {
		if err := runAblation(*ablation, o.seed); err != nil {
			fmt.Fprintf(os.Stderr, "benchfig: %v\n", err)
			os.Exit(exitErr)
		}
		return
	}
	if *ext != "" {
		if err := runExtension(*ext, o.seed); err != nil {
			fmt.Fprintf(os.Stderr, "benchfig: %v\n", err)
			os.Exit(exitErr)
		}
		return
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	code, err := run(ctx, o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchfig: %v\n", err)
		if code == exitOK {
			code = exitErr
		}
	}
	os.Exit(code)
}

// parseAlgos turns a comma-separated override like "TENDS,NetInf,PATH" into
// an algorithm list, validating every name.
func parseAlgos(spec string) ([]experiments.Algorithm, error) {
	known := map[string]experiments.Algorithm{
		"TENDS":    experiments.AlgoTENDS,
		"TENDS-MI": experiments.AlgoTENDSMI,
		"NETRATE":  experiments.AlgoNetRate,
		"MULTREE":  experiments.AlgoMulTree,
		"NETINF":   experiments.AlgoNetInf,
		"LIFT":     experiments.AlgoLIFT,
		"PATH":     experiments.AlgoPATH,
	}
	var out []experiments.Algorithm
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		algo, ok := known[strings.ToUpper(name)]
		if !ok {
			return nil, fmt.Errorf("unknown algorithm %q", name)
		}
		out = append(out, algo)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty algorithm list %q", spec)
	}
	return out, nil
}

// runExtension executes one of the robustness extension studies (DESIGN.md
// §6) on the NetSci-stand-in workload.
func runExtension(name string, seed int64) error {
	network := func(s int64) (*graph.Directed, error) { return datasets.NetSci(s) }
	var (
		points []experiments.ExtensionPoint
		err    error
	)
	switch name {
	case "noise":
		points, err = experiments.NoiseRobustness(network, []float64{0, 0.01, 0.02, 0.05, 0.1}, seed)
	case "missing":
		points, err = experiments.MissingRobustness(network, []float64{0, 0.05, 0.1, 0.2, 0.3}, seed)
	case "mismatch":
		points, err = experiments.ModelMismatch(network, seed)
	case "timestamps":
		points, err = experiments.TimestampNoise(network, []float64{0, 0.5, 1, 2}, seed)
	default:
		return fmt.Errorf("unknown extension %q (want noise, missing, mismatch, timestamps)", name)
	}
	if err != nil {
		return err
	}
	fmt.Printf("extension %q on NetSci stand-in (beta=150, alpha=0.15, mu=0.3, seed=%d)\n\n", name, seed)
	fmt.Printf("%-24s %8s %10s %10s %8s %12s\n", "point", "F", "precision", "recall", "edges", "time")
	for _, p := range points {
		fmt.Printf("%-24s %8.3f %10.3f %10.3f %8d %12v\n",
			p.Label, p.PRF.F, p.PRF.Precision, p.PRF.Recall, p.Edges, p.Runtime.Round(time.Millisecond))
	}
	return nil
}

// runAblation executes one of the DESIGN.md §6 ablation studies on the
// NetSci-stand-in workload at the paper's default settings.
func runAblation(name string, seed int64) error {
	w, err := experiments.NewAblationWorkload(
		func(s int64) (*graph.Directed, error) { return datasets.NetSci(s) },
		0.3, 0.15, 150, seed)
	if err != nil {
		return err
	}
	var results []experiments.AblationResult
	switch name {
	case "threshold":
		results, err = experiments.ThresholdAblation(w)
	case "greedy":
		results, err = experiments.GreedyAblation(w)
	case "pruning":
		results, err = experiments.PruningAblation(w)
	case "penalty":
		results, err = experiments.PenaltyAblation(w)
	case "treemodel":
		results, err = experiments.TreeModelAblation(w)
	default:
		return fmt.Errorf("unknown ablation %q (want threshold, greedy, pruning, penalty, treemodel)", name)
	}
	if err != nil {
		return err
	}
	fmt.Printf("ablation %q on NetSci stand-in (beta=150, alpha=0.15, mu=0.3, seed=%d)\n\n", name, seed)
	fmt.Printf("%-32s %8s %10s %10s %8s %12s\n", "variant", "F", "precision", "recall", "edges", "time")
	for _, r := range results {
		fmt.Printf("%-32s %8.3f %10.3f %10.3f %8d %12v\n",
			r.Variant, r.PRF.F, r.PRF.Precision, r.PRF.Recall, r.Edges, r.Runtime.Round(time.Millisecond))
	}
	return nil
}

// resumeJournal reopens a checkpoint journal to continue it and validates
// its header against the run's seed and repeats, so restored cells can
// never silently mix with freshly computed ones from a different
// configuration. A damaged frame (a crash mid-append) is not fatal by
// default: reading stops there, the damage is reported to stderr with its
// byte offset, the journal is truncated to its intact prefix so new cells
// append cleanly, and the damage lands on the recorder (nil-safe) so an
// -obs-json snapshot records it. With strict set (-resume-strict) any
// damage aborts the run instead and the file is left as it was — the same
// lenient/strict split the streaming service applies to its write-ahead
// log.
func resumeJournal(path string, seed int64, repeats int, strict bool, rec *obs.Recorder) (*experiments.Journal, map[experiments.CellKey]experiments.Measurement, error) {
	j, cp, err := experiments.ResumeJournal(path, strict)
	if err != nil {
		return nil, nil, fmt.Errorf("resume %s: %w", path, err)
	}
	if d := cp.Damage; d != nil {
		fmt.Fprintf(os.Stderr, "benchfig: %s: %v; truncated there, the cells after it will be recomputed\n", path, d)
		rec.Counter("benchfig/journal_damage").Inc()
	}
	if cp.Header.Seed != seed || cp.Header.Repeats != repeats {
		j.Close()
		return nil, nil, fmt.Errorf("resume %s: journal was written with seed %d, repeats %d; run has seed %d, repeats %d",
			path, cp.Header.Seed, cp.Header.Repeats, seed, repeats)
	}
	return j, cp.Cells, nil
}

func run(ctx context.Context, o runOpts) (int, error) {
	if o.repeats < 0 {
		return exitErr, fmt.Errorf("usage: -repeats must be >= 0, got %d", o.repeats)
	}
	if o.workers < 0 {
		return exitErr, fmt.Errorf("usage: -workers must be >= 0, got %d", o.workers)
	}
	if o.retries < 0 {
		return exitErr, fmt.Errorf("usage: -retries must be >= 0, got %d", o.retries)
	}
	if o.comboBudget < 0 {
		return exitErr, fmt.Errorf("usage: -combo-budget must be >= 0, got %d", o.comboBudget)
	}
	if o.breaker < 0 {
		return exitErr, fmt.Errorf("usage: -breaker must be >= 0, got %d", o.breaker)
	}
	if o.nodeDeadline < 0 || o.retryBackoff < 0 {
		return exitErr, fmt.Errorf("usage: -node-deadline and -retry-backoff must be >= 0")
	}
	var injector *chaos.Injector
	if o.chaosSpec != "" {
		rules, err := chaos.ParseSpec(o.chaosSpec)
		if err != nil {
			return exitErr, fmt.Errorf("usage: -chaos: %w", err)
		}
		injector = chaos.New(o.chaosSeed, rules)
	}
	figs := experiments.Figures()
	var ids []int
	switch {
	case o.all:
		ids = experiments.FigureIDs()
	case o.figNum != 0:
		if _, ok := figs[o.figNum]; !ok {
			return exitErr, fmt.Errorf("unknown figure %d (have 1..16)", o.figNum)
		}
		ids = []int{o.figNum}
	default:
		return exitErr, fmt.Errorf("one of -fig or -all is required")
	}
	var algoOverride []experiments.Algorithm
	if o.algos != "" {
		var err error
		algoOverride, err = parseAlgos(o.algos)
		if err != nil {
			return exitErr, err
		}
	}
	repeats := o.repeats
	if repeats <= 0 {
		repeats = 1
	}
	if o.resume != "" && o.checkpoint != "" && o.checkpoint != o.resume {
		return exitErr, fmt.Errorf("-checkpoint %s conflicts with -resume %s: a resumed run continues its own journal", o.checkpoint, o.resume)
	}

	// The observability recorder is a pure side channel (measurements, CSV
	// bytes, and the journal are identical with and without it), so it is
	// created whenever any obs output was requested. It must exist before the
	// resume journal is loaded so its damage count lands on it.
	var rec *obs.Recorder
	if o.obsJSON != "" || o.progress {
		rec = obs.New()
	}

	// The checkpoint journal: continued in place on -resume (restored cells
	// are only recorded there, so a second journal would be incomplete),
	// started fresh on -checkpoint alone.
	var journal *experiments.Journal
	var resumeCells map[experiments.CellKey]experiments.Measurement
	switch {
	case o.resume != "":
		var err error
		journal, resumeCells, err = resumeJournal(o.resume, o.seed, repeats, o.resumeStrict, rec)
		if err != nil {
			return exitErr, err
		}
		defer journal.Close()
	case o.checkpoint != "":
		var err error
		journal, err = experiments.CreateJournal(o.checkpoint, o.seed, repeats)
		if err != nil {
			return exitErr, err
		}
		defer journal.Close()
	}

	var progress io.Writer
	if !o.quiet {
		progress = os.Stderr
	}
	if o.pprofAddr != "" {
		if err := startPprof(o.pprofAddr); err != nil {
			return exitErr, err
		}
	}
	if o.progress {
		stop := startProgress(rec, os.Stderr)
		defer stop()
	}
	var allMeasurements []experiments.Measurement
	var total experiments.RunStats
	interrupted := false
	scenarioOv := experiments.ScenarioOverride{
		Model: o.model, Delay: o.delay, DelayParam: o.delayParam,
		Recovery: o.recovery, Reinfect: o.reinfect,
		Missing: o.missing, Uncertain: o.uncertain,
	}
	for _, id := range ids {
		fig := figs[id]
		if algoOverride != nil {
			fig = experiments.SelectAlgorithms(fig, algoOverride...)
		}
		var err error
		fig, err = experiments.ApplyScenario(fig, scenarioOv)
		if err != nil {
			return exitErr, fmt.Errorf("usage: %w", err)
		}
		cfg := experiments.Config{
			Seed:             o.seed,
			Repeats:          o.repeats,
			Workers:          o.workers,
			CellTimeout:      o.cellTimeout,
			Retries:          o.retries,
			RetryBackoff:     o.retryBackoff,
			BreakerThreshold: o.breaker,
			NodeDeadline:     o.nodeDeadline,
			ComboBudget:      o.comboBudget,
			Chaos:            injector,
			Checkpoint:       journal,
			Resume:           resumeCells,
			Obs:              rec,
		}
		ms, rs, err := experiments.RunContext(ctx, fig, cfg, progress)
		if err != nil && !errors.Is(err, context.Canceled) {
			return exitErr, err
		}
		interrupted = interrupted || err != nil
		total.Cells += rs.Cells
		total.Restored += rs.Restored
		total.FailedCells += rs.FailedCells
		total.CancelledCells += rs.CancelledCells
		total.Retried += rs.Retried
		total.Recovered += rs.Recovered
		total.BreakerSkipped += rs.BreakerSkipped
		if err := experiments.WriteTable(os.Stdout, fig, ms); err != nil {
			return exitErr, err
		}
		allMeasurements = append(allMeasurements, ms...)
		if interrupted {
			break
		}
	}
	if o.csvPath != "" {
		f, err := os.Create(o.csvPath)
		if err != nil {
			return exitErr, err
		}
		if err := experiments.WriteCSV(f, allMeasurements); err != nil {
			f.Close()
			return exitErr, err
		}
		if err := f.Close(); err != nil {
			return exitErr, err
		}
	}
	// The snapshot is written even after an interruption — a partial run's
	// phase profile is exactly what a timeout investigation needs.
	if o.obsJSON != "" {
		f, err := os.Create(o.obsJSON)
		if err != nil {
			return exitErr, err
		}
		if err := rec.WriteJSON(f); err != nil {
			f.Close()
			return exitErr, err
		}
		if err := f.Close(); err != nil {
			return exitErr, err
		}
	}
	degradedNodes := 0
	for _, m := range allMeasurements {
		degradedNodes += m.DegradedNodes
	}
	if interrupted || total.FailedCells+total.CancelledCells+total.Retried+total.Restored+total.BreakerSkipped+degradedNodes > 0 {
		fmt.Fprintf(os.Stderr, "benchfig: %d/%d cells failed, %d cancelled, %d restored, %d retries (%d recovered, %d breaker-skipped), %d degraded nodes\n",
			total.FailedCells, total.Cells, total.CancelledCells, total.Restored, total.Retried, total.Recovered, total.BreakerSkipped, degradedNodes)
	}
	if injector != nil {
		fmt.Fprintf(os.Stderr, "benchfig: chaos injected %d faults, %d delays (-chaos %q -chaos-seed %d)\n",
			injector.TotalFaults(), injector.TotalDelays(), o.chaosSpec, o.chaosSeed)
	}
	switch {
	case interrupted:
		return exitInterrupted, fmt.Errorf("interrupted; completed cells journaled%s", resumeHint(o))
	case total.FailedCells > 0:
		return exitFailedCells, nil
	}
	return exitOK, nil
}

// resumeHint names the journal a -resume run can pick up, if one was kept.
func resumeHint(o runOpts) string {
	switch {
	case o.resume != "":
		return fmt.Sprintf(" — resume with -resume %s", o.resume)
	case o.checkpoint != "":
		return fmt.Sprintf(" — resume with -resume %s", o.checkpoint)
	}
	return ""
}

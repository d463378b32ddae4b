package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"tends/internal/chaos"
	"tends/internal/experiments"
	"tends/internal/obs"
)

// scaleOpts carries the flag values of benchfig's scale-study mode, which
// runs one large-n LFR point end to end instead of regenerating a figure.
// The workload is derived deterministically from -seed, so independent
// processes can each run one shard (-shard i/k) and their journals merge
// (-merge) into the same topology an unsharded run would produce — and the
// -supervise mode launches, monitors, restarts, and merges those shard
// workers itself.
type scaleOpts struct {
	run       bool
	n         int
	beta      int
	deg       float64
	exp       float64
	mixing    float64
	seeds     int
	mu        float64
	sparse    bool
	shardSpec string
	mergeSpec string

	// Supervised-run flags (the -supervise family).
	superviseK      int
	shardDeadline   time.Duration
	shardRetries    int
	hedgeAfter      time.Duration
	stallTimeout    time.Duration
	pollEvery       time.Duration
	superviseDir    string
	superviseReport string

	// Worker-side flags the supervisor passes to its shard subprocesses.
	shardResume  bool
	shardAttempt int

	// Merge-side degradation switch.
	mergeDegraded bool
}

func registerScaleFlags(s *scaleOpts) {
	flag.BoolVar(&s.run, "scale", false, "run the large-n scale study instead of a figure")
	flag.IntVar(&s.n, "scale-n", 10000, "scale study: number of nodes")
	flag.IntVar(&s.beta, "scale-beta", 256, "scale study: diffusion processes (observations)")
	flag.Float64Var(&s.deg, "scale-deg", 10, "scale study: LFR average degree")
	flag.Float64Var(&s.exp, "scale-exp", 2, "scale study: LFR degree power-law exponent")
	flag.Float64Var(&s.mixing, "scale-mixing", 0.1, "scale study: LFR mixing parameter")
	flag.IntVar(&s.seeds, "scale-seeds", 10, "scale study: seed infections per diffusion process")
	flag.Float64Var(&s.mu, "scale-mu", 0.08, "scale study: mean per-edge propagation probability (subcritical keeps co-pairs sparse)")
	flag.BoolVar(&s.sparse, "sparse", false, "use the sparse candidate engine (bit-identical results, sub-quadratic pairwise stage)")
	flag.StringVar(&s.shardSpec, "shard", "", `run one shard of the scale study, e.g. "0/4"; requires -checkpoint for the shard journal`)
	flag.StringVar(&s.mergeSpec, "merge", "", `comma-separated shard journals (globs allowed, e.g. 'shards/*.journal') to merge into the final topology`)
	flag.IntVar(&s.superviseK, "supervise", 0, "supervise k shard worker subprocesses end to end: launch, monitor, restart, resume, hedge, and merge (requires -scale)")
	flag.DurationVar(&s.shardDeadline, "shard-deadline", 0, "supervise: kill and retry a shard attempt running longer than this (0 = none)")
	flag.IntVar(&s.shardRetries, "shard-retries", 2, "supervise: restarts granted to a failed shard before the merge degrades without it")
	flag.DurationVar(&s.hedgeAfter, "hedge-after", 0, "supervise: launch a hedged duplicate of a shard attempt still running after this long (0 = never)")
	flag.DurationVar(&s.stallTimeout, "stall-timeout", 0, "supervise: kill a shard whose journal has not grown for this long (0 = no stall detection)")
	flag.DurationVar(&s.pollEvery, "shard-poll", 0, "supervise: journal heartbeat poll interval (0 = 25ms)")
	flag.StringVar(&s.superviseDir, "supervise-dir", "", "supervise: directory for the shard journals (default: a fresh supervise-shards dir)")
	flag.StringVar(&s.superviseReport, "supervise-report", "", "supervise: write the structured run report (per-shard outcomes, merge accounting, counters) as JSON to this file")
	flag.BoolVar(&s.shardResume, "shard-resume", false, "shard worker: continue the partial journal at -checkpoint (torn tails truncated; corrupt journals restart fresh)")
	flag.IntVar(&s.shardAttempt, "shard-attempt", 0, "shard worker: supervisor attempt number (keys the chaos decision scope per restart)")
	flag.BoolVar(&s.mergeDegraded, "merge-degraded", false, "merge: accept an incomplete shard set and produce the partial topology plus a missing-node report")
}

// parseShardSpec parses "i/k" into (index, count).
func parseShardSpec(spec string) (int, int, error) {
	var idx, count int
	if n, err := fmt.Sscanf(spec, "%d/%d", &idx, &count); n != 2 || err != nil {
		return 0, 0, fmt.Errorf("usage: -shard wants i/k, got %q", spec)
	}
	if count < 1 || idx < 0 || idx >= count {
		return 0, 0, fmt.Errorf("usage: -shard %q out of range (want 0 <= i < k)", spec)
	}
	return idx, count, nil
}

func (s *scaleOpts) config(o runOpts) experiments.ScaleConfig {
	return experiments.ScaleConfig{
		N:         s.n,
		Beta:      s.beta,
		AvgDegree: s.deg,
		DegreeExp: s.exp,
		Mixing:    s.mixing,
		Seeds:     s.seeds,
		EdgeProb:  s.mu,
		Seed:      o.seed,
		Workers:   o.workers,
		Sparse:    s.sparse,
	}
}

// scaleInjector builds the chaos injector of the scale modes from the
// shared -chaos/-chaos-seed flags; nil when chaos is off.
func scaleInjector(o runOpts) (*chaos.Injector, error) {
	if o.chaosSpec == "" {
		return nil, nil
	}
	rules, err := chaos.ParseSpec(o.chaosSpec)
	if err != nil {
		return nil, fmt.Errorf("usage: -chaos: %w", err)
	}
	return chaos.New(o.chaosSeed, rules), nil
}

// expandMergeSpec resolves the -merge argument: comma-separated segments,
// each either a literal path or a glob, into a sorted path list.
func expandMergeSpec(spec string) ([]string, error) {
	var paths []string
	for _, seg := range strings.Split(spec, ",") {
		seg = strings.TrimSpace(seg)
		if seg == "" {
			continue
		}
		matches, err := filepath.Glob(seg)
		if err != nil {
			return nil, fmt.Errorf("usage: -merge pattern %q: %w", seg, err)
		}
		if len(matches) == 0 {
			return nil, fmt.Errorf("-merge: no shard journals match %q", seg)
		}
		paths = append(paths, matches...)
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("-merge: empty journal list %q", spec)
	}
	sort.Strings(paths)
	return paths, nil
}

// validateShardSet peeks at every journal's header (no records) and
// reports, up front, which shard indices of the set are missing — so an
// operator learns "missing indices [2 5]" instead of a generic merge error
// after minutes of parsing. Identity mismatches surface here too.
func validateShardSet(paths []string) (present map[int][]string, count int, missing []int, err error) {
	var ref *experiments.ShardHeader
	present = make(map[int][]string)
	for _, path := range paths {
		h, herr := experiments.ReadShardHeader(path)
		if herr != nil {
			return nil, 0, nil, fmt.Errorf("%s: %w", path, herr)
		}
		if ref == nil {
			ref = h
		} else if !h.SameRun(*ref) {
			return nil, 0, nil, fmt.Errorf("%s: shard %d/%d ran a different configuration than %d/%d",
				path, h.ShardIndex, h.ShardCount, ref.ShardIndex, ref.ShardCount)
		}
		present[h.ShardIndex] = append(present[h.ShardIndex], path)
	}
	for i := 0; i < ref.ShardCount; i++ {
		if len(present[i]) == 0 {
			missing = append(missing, i)
		}
	}
	return present, ref.ShardCount, missing, nil
}

// loadShardJournals parses full shard journals, lenient by default (a
// damaged tail is reported to stderr with its position and the nodes
// before it kept), strict under -resume-strict. A journal that fails to
// load is an error, unless degraded is set: then it is dropped with a
// stderr warning and the degraded merge accounts for its nodes.
func loadShardJournals(paths []string, strict, degraded bool) ([]*experiments.ShardHeader, []map[int][]int, error) {
	var headers []*experiments.ShardHeader
	var nodes []map[int][]int
	for _, path := range paths {
		h, ns, damage, err := experiments.LoadShardJournal(path, strict)
		if err != nil {
			if !degraded {
				return nil, nil, fmt.Errorf("%s: %w", path, err)
			}
			fmt.Fprintf(os.Stderr, "benchfig: degraded merge: dropping %s: %v\n", path, err)
			continue
		}
		if damage != nil {
			fmt.Fprintf(os.Stderr, "benchfig: %s: %v\n", path, damage)
		}
		headers = append(headers, h)
		nodes = append(nodes, ns)
	}
	return headers, nodes, nil
}

// runScale executes the scale study in one of four modes: a full run, one
// shard of k (journaled incrementally to -checkpoint, resumable), a merge
// of shard journals, or a supervised k-shard run.
func runScale(ctx context.Context, o runOpts, s scaleOpts) (int, error) {
	cfg := s.config(o)
	injector, err := scaleInjector(o)
	if err != nil {
		return exitErr, err
	}
	var rec *obs.Recorder
	if o.obsJSON != "" || s.superviseReport != "" {
		rec = obs.New()
		cfg.Obs = rec
	}
	if injector != nil {
		ctx = chaos.With(ctx, injector)
	}
	writeObs := func() error {
		if o.obsJSON == "" {
			return nil
		}
		f, err := os.Create(o.obsJSON)
		if err != nil {
			return err
		}
		if err := rec.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}

	switch {
	case s.superviseK > 0:
		if !s.run {
			return exitErr, fmt.Errorf("usage: -supervise requires -scale")
		}
		code, err := runSupervised(ctx, o, s, cfg, injector, rec)
		if werr := writeObs(); err == nil && werr != nil {
			return exitErr, werr
		}
		return code, err

	case s.mergeSpec != "":
		paths, err := expandMergeSpec(s.mergeSpec)
		if err != nil {
			return exitErr, err
		}
		if s.mergeDegraded {
			// The degraded merge tolerates what the strict path rejects:
			// journals that never got a header (a worker killed before its
			// search started leaves an empty file), truncated journals, and
			// absent shards. Unloadable journals are dropped with a warning;
			// the report accounts for every node they would have carried.
			headers, nodes, _ := loadShardJournals(paths, false, true)
			if len(headers) == 0 {
				return exitErr, fmt.Errorf("merge: none of the %d journals is usable", len(paths))
			}
			merged, rep, err := experiments.MergeScaleShardsDegraded(ctx, cfg, headers, nodes)
			if err != nil {
				return exitErr, err
			}
			printDegradedMerge(cfg, merged, rep)
			if rep.Complete {
				return exitOK, writeObs()
			}
			return exitFailedCells, writeObs()
		}
		present, count, missing, err := validateShardSet(paths)
		if err != nil {
			return exitErr, err
		}
		if len(missing) > 0 {
			return exitErr, fmt.Errorf("merge: shard set incomplete: have %d of %d shards, missing indices %v (pass -merge-degraded to merge the partial topology)",
				len(present), count, missing)
		}
		headers, nodes, err := loadShardJournals(paths, o.resumeStrict, false)
		if err != nil {
			return exitErr, err
		}
		merged, err := experiments.MergeScaleShards(ctx, cfg, headers, nodes)
		if err != nil {
			return exitErr, err
		}
		printMerge(cfg, len(headers), merged)
		return exitOK, writeObs()

	case s.shardSpec != "":
		idx, count, err := parseShardSpec(s.shardSpec)
		if err != nil {
			return exitErr, err
		}
		if o.checkpoint == "" {
			return exitErr, fmt.Errorf("usage: -shard requires -checkpoint for the shard journal")
		}
		cfg.ShardIndex, cfg.ShardCount = idx, count
		cfg.Attempt = s.shardAttempt
		res, err := experiments.RunShardWorker(ctx, cfg, o.checkpoint, s.shardResume)
		if err != nil {
			return exitErr, err
		}
		fmt.Printf("scale shard %d/%d: n=%d sparse=%v threshold=%.6g workload=%v infer=%v journal=%s\n",
			idx, count, cfg.N, cfg.Sparse, res.Inference.Threshold,
			res.WorkloadDur.Round(time.Millisecond), res.InferDur.Round(time.Millisecond), o.checkpoint)
		return exitOK, writeObs()

	default:
		res, err := experiments.RunScale(ctx, cfg)
		if err != nil {
			return exitErr, err
		}
		fmt.Printf("scale run: n=%d beta=%d sparse=%v threshold=%.6g edges=%d\n",
			cfg.N, cfg.Beta, cfg.Sparse, res.Inference.Threshold, res.Inference.Graph.NumEdges())
		fmt.Printf("P=%.4f R=%.4f F=%.4f workload=%v infer=%v\n",
			res.Score.Precision, res.Score.Recall, res.Score.F,
			res.WorkloadDur.Round(time.Millisecond), res.InferDur.Round(time.Millisecond))
		return exitOK, writeObs()
	}
}

// printMerge renders a complete merge's topology stats and scores.
func printMerge(cfg experiments.ScaleConfig, shards int, merged *experiments.MergedScaleResult) {
	fmt.Printf("scale merge: n=%d shards=%d threshold=%.6g edges=%d\n",
		cfg.N, shards, merged.Threshold, merged.Graph.NumEdges())
	fmt.Printf("P=%.4f R=%.4f F=%.4f\n", merged.Score.Precision, merged.Score.Recall, merged.Score.F)
}

// printDegradedMerge renders a degraded merge: the partial topology's
// stats in the same shape the complete merge prints, plus the structured
// missing-set accounting on stderr.
func printDegradedMerge(cfg experiments.ScaleConfig, merged *experiments.MergedScaleResult, rep *experiments.MergeReport) {
	fmt.Printf("scale merge degraded: n=%d shards=%d/%d threshold=%.6g edges=%d missing_nodes=%d\n",
		cfg.N, len(rep.PresentShards), rep.ShardCount, merged.Threshold, merged.Graph.NumEdges(), len(rep.MissingNodes))
	fmt.Printf("P=%.4f R=%.4f F=%.4f\n", merged.Score.Precision, merged.Score.Recall, merged.Score.F)
	if !rep.Complete {
		fmt.Fprintf(os.Stderr, "benchfig: degraded merge: missing shards %v; %d of %d nodes merged, %d missing\n",
			rep.MissingShards, rep.MergedNodes, rep.N, len(rep.MissingNodes))
	}
}

// itoa and ftoa shorten the worker argv construction.
func itoa(v int) string { return strconv.Itoa(v) }
func ftoa(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

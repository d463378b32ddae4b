package supervise

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"tends/internal/chaos"
	"tends/internal/experiments"
	"tends/internal/obs"
)

// testCfg is the small scale workload the supervisor tests shard. Seeds and
// sizes are pinned so every assertion below is deterministic.
func testCfg(workers int) experiments.ScaleConfig {
	return experiments.ScaleConfig{N: 45, Beta: 32, Seeds: 3, Seed: 11, Workers: workers}
}

// workerLauncher runs real shard workers in-process: the launcher the
// supervisor uses in production, minus the subprocess boundary.
func workerLauncher(cfg experiments.ScaleConfig) FuncLauncher {
	return FuncLauncher{Run: func(ctx context.Context, a Attempt) error {
		c := cfg
		c.ShardIndex, c.ShardCount = a.Shard, a.ShardCount
		c.Attempt = a.Attempt
		_, err := experiments.RunShardWorker(ctx, c, a.Journal, a.Resume)
		return err
	}}
}

// mergeOutcomes loads each completed shard's winning journal and merges.
func mergeOutcomes(t *testing.T, cfg experiments.ScaleConfig, res *Result) *experiments.MergedScaleResult {
	t.Helper()
	var headers []*experiments.ShardHeader
	var nodeSets []map[int][]int
	for _, out := range res.Outcomes {
		if !out.Completed {
			continue
		}
		h, nodes, _, err := experiments.LoadShardJournal(out.Journal, false)
		if err != nil {
			t.Fatalf("load %s: %v", out.Journal, err)
		}
		headers = append(headers, h)
		nodeSets = append(nodeSets, nodes)
	}
	merged, err := experiments.MergeScaleShards(context.Background(), cfg, headers, nodeSets)
	if err != nil {
		t.Fatal(err)
	}
	return merged
}

// unshardedTopology is the byte-identity reference every supervised run must
// reproduce.
func unshardedTopology(t *testing.T, cfg experiments.ScaleConfig) string {
	t.Helper()
	full, err := experiments.RunScale(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return full.Inference.Graph.String()
}

// TestSuperviseCleanRun checks the no-failure path end to end at serial and
// parallel core worker counts: every shard completes in one attempt and the
// merged topology is byte-identical to the unsharded run.
func TestSuperviseCleanRun(t *testing.T) {
	for _, workers := range []int{1, 4} {
		cfg := testCfg(workers)
		want := unshardedTopology(t, cfg)
		dir := t.TempDir()
		rec := obs.New()
		res, err := Run(context.Background(), Options{
			Shards:      3,
			N:           cfg.N,
			JournalPath: func(s int) string { return filepath.Join(dir, fmt.Sprintf("shard-%d.journal", s)) },
			Launch:      workerLauncher(cfg),
			Retries:     0,
			Seed:        cfg.Seed,
			Obs:         rec,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !res.Complete() {
			t.Fatalf("workers=%d: failed shards %v", workers, res.Failed)
		}
		for _, out := range res.Outcomes {
			if out.Attempts != 1 || out.Hedges != 0 || out.ResumedNodes != 0 {
				t.Fatalf("workers=%d shard %d: unexpected outcome %+v", workers, out.Shard, out)
			}
		}
		merged := mergeOutcomes(t, cfg, res)
		if merged.Graph.String() != want {
			t.Fatalf("workers=%d: supervised topology differs from unsharded", workers)
		}
		snap := rec.Snapshot()
		if snap.Counters["supervise/launches"] != 3 || snap.Counters["supervise/shards_completed"] != 3 {
			t.Fatalf("workers=%d: counters %v", workers, snap.Counters)
		}
	}
}

// TestSuperviseCrashResume checks self-healing under worker-side crashes:
// the chaos journal-stall site kills appends mid-shard (deterministically,
// keyed by shard and attempt), restarts resume node-for-node from the
// partial journal, and the merged topology is still byte-identical.
func TestSuperviseCrashResume(t *testing.T) {
	for _, workers := range []int{1, 4} {
		cfg := testCfg(workers)
		want := unshardedTopology(t, cfg)
		inj := chaos.New(5, []chaos.Rule{{Site: chaos.SiteJournalStall, Kind: chaos.KindError, Rate: 0.25}})
		dir := t.TempDir()
		rec := obs.New()
		res, err := Run(context.Background(), Options{
			Shards:      3,
			N:           cfg.N,
			JournalPath: func(s int) string { return filepath.Join(dir, fmt.Sprintf("shard-%d.journal", s)) },
			Launch:      workerLauncher(cfg),
			Retries:     25,
			Seed:        cfg.Seed,
			Chaos:       inj,
			Obs:         rec,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !res.Complete() {
			t.Fatalf("workers=%d: failed shards %v under crash chaos", workers, res.Failed)
		}
		if inj.Injected(chaos.SiteJournalStall, chaos.KindError) == 0 {
			t.Fatalf("workers=%d: no crashes injected; the test exercised nothing", workers)
		}
		snap := rec.Snapshot()
		if snap.Counters["supervise/restarts"] == 0 || snap.Counters["supervise/resumes"] == 0 {
			t.Fatalf("workers=%d: crashes did not drive restarts+resumes: %v", workers, snap.Counters)
		}
		merged := mergeOutcomes(t, cfg, res)
		if merged.Graph.String() != want {
			t.Fatalf("workers=%d: resumed topology differs from unsharded", workers)
		}
	}
}

// TestSuperviseDegradedOutcome checks retry-budget exhaustion: a shard that
// always fails lands in Result.Failed with its full attempt count, and the
// degraded merge accounts for exactly its owned nodes.
func TestSuperviseDegradedOutcome(t *testing.T) {
	cfg := testCfg(2)
	real := workerLauncher(cfg)
	launch := FuncLauncher{Run: func(ctx context.Context, a Attempt) error {
		if a.Shard == 1 {
			return fmt.Errorf("shard 1 is cursed")
		}
		return real.Run(ctx, a)
	}}
	dir := t.TempDir()
	rec := obs.New()
	res, err := Run(context.Background(), Options{
		Shards:      3,
		N:           cfg.N,
		JournalPath: func(s int) string { return filepath.Join(dir, fmt.Sprintf("shard-%d.journal", s)) },
		Launch:      launch,
		Retries:     2,
		Seed:        cfg.Seed,
		Obs:         rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Complete() || len(res.Failed) != 1 || res.Failed[0] != 1 {
		t.Fatalf("failed = %v, want [1]", res.Failed)
	}
	out := res.Outcomes[1]
	if out.Completed || out.Attempts != 3 || out.Err == nil {
		t.Fatalf("shard 1 outcome: %+v", out)
	}
	if rec.Snapshot().Counters["supervise/shards_failed"] != 1 {
		t.Fatalf("counters: %v", rec.Snapshot().Counters)
	}

	// The surviving journals merge degraded, with shard 1's nodes missing.
	var headers []*experiments.ShardHeader
	var nodeSets []map[int][]int
	for _, out := range res.Outcomes {
		if !out.Completed {
			continue
		}
		h, nodes, _, lerr := experiments.LoadShardJournal(out.Journal, false)
		if lerr != nil {
			t.Fatal(lerr)
		}
		headers = append(headers, h)
		nodeSets = append(nodeSets, nodes)
	}
	_, rep, err := experiments.MergeScaleShardsDegraded(context.Background(), cfg, headers, nodeSets)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Complete || len(rep.MissingShards) != 1 || rep.MissingShards[0] != 1 {
		t.Fatalf("merge report: %+v", rep)
	}
	if rep.MergedNodes+len(rep.MissingNodes) != cfg.N {
		t.Fatalf("accounting does not balance: %+v", rep)
	}
	if len(rep.MissingNodes) != experiments.ShardOwnedNodes(cfg.N, 1, 3) {
		t.Fatalf("%d missing nodes, shard 1 owns %d", len(rep.MissingNodes), experiments.ShardOwnedNodes(cfg.N, 1, 3))
	}
	for _, n := range rep.MissingNodes {
		if n%3 != 1 {
			t.Fatalf("missing node %d does not belong to shard 1", n)
		}
	}
}

// TestSuperviseHedge checks the straggler path: a primary that never makes
// progress is out-raced by a hedged duplicate on the side journal.
func TestSuperviseHedge(t *testing.T) {
	cfg := testCfg(2)
	real := workerLauncher(cfg)
	launch := FuncLauncher{Run: func(ctx context.Context, a Attempt) error {
		if a.Shard == 0 && !a.Hedge {
			<-ctx.Done() // wedged primary: alive, never progressing
			return ctx.Err()
		}
		return real.Run(ctx, a)
	}}
	dir := t.TempDir()
	rec := obs.New()
	res, err := Run(context.Background(), Options{
		Shards:      2,
		N:           cfg.N,
		JournalPath: func(s int) string { return filepath.Join(dir, fmt.Sprintf("shard-%d.journal", s)) },
		Launch:      launch,
		Retries:     0,
		HedgeAfter:  20 * time.Millisecond,
		PollEvery:   5 * time.Millisecond,
		Seed:        cfg.Seed,
		Obs:         rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete() {
		t.Fatalf("failed shards %v", res.Failed)
	}
	out := res.Outcomes[0]
	if out.Hedges != 1 || out.Journal != filepath.Join(dir, "shard-0.journal.hedge") {
		t.Fatalf("shard 0 outcome: %+v", out)
	}
	if rec.Snapshot().Counters["supervise/hedge_wins"] < 1 {
		t.Fatalf("counters: %v", rec.Snapshot().Counters)
	}
	merged := mergeOutcomes(t, cfg, res)
	if merged.Graph.String() != unshardedTopology(t, cfg) {
		t.Fatal("hedged topology differs from unsharded")
	}
}

// TestSuperviseStallKill checks the heartbeat: a worker whose journal stops
// growing is killed and the restart completes the shard.
func TestSuperviseStallKill(t *testing.T) {
	cfg := testCfg(2)
	real := workerLauncher(cfg)
	launch := FuncLauncher{Run: func(ctx context.Context, a Attempt) error {
		if a.Attempt == 1 {
			<-ctx.Done() // wedged: writes nothing, holds its slot
			return ctx.Err()
		}
		return real.Run(ctx, a)
	}}
	dir := t.TempDir()
	rec := obs.New()
	res, err := Run(context.Background(), Options{
		Shards:       2,
		N:            cfg.N,
		JournalPath:  func(s int) string { return filepath.Join(dir, fmt.Sprintf("shard-%d.journal", s)) },
		Launch:       launch,
		Retries:      1,
		StallTimeout: 25 * time.Millisecond,
		PollEvery:    5 * time.Millisecond,
		Seed:         cfg.Seed,
		Obs:          rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete() {
		t.Fatalf("failed shards %v", res.Failed)
	}
	snap := rec.Snapshot()
	if snap.Counters["supervise/kills/stall"] < 2 {
		t.Fatalf("stall kills = %d, want one per shard: %v", snap.Counters["supervise/kills/stall"], snap.Counters)
	}
	for _, out := range res.Outcomes {
		if out.Attempts != 2 {
			t.Fatalf("shard %d completed in %d attempts, want 2", out.Shard, out.Attempts)
		}
	}
}

// TestSuperviseDeadlineKill checks the per-attempt deadline cut.
func TestSuperviseDeadlineKill(t *testing.T) {
	cfg := testCfg(2)
	real := workerLauncher(cfg)
	launch := FuncLauncher{Run: func(ctx context.Context, a Attempt) error {
		if a.Attempt == 1 {
			<-ctx.Done()
			return ctx.Err()
		}
		return real.Run(ctx, a)
	}}
	dir := t.TempDir()
	rec := obs.New()
	res, err := Run(context.Background(), Options{
		Shards:        1,
		N:             cfg.N,
		JournalPath:   func(s int) string { return filepath.Join(dir, "shard-0.journal") },
		Launch:        launch,
		Retries:       1,
		ShardDeadline: 30 * time.Millisecond,
		PollEvery:     5 * time.Millisecond,
		Seed:          cfg.Seed,
		Obs:           rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete() || res.Outcomes[0].Attempts != 2 {
		t.Fatalf("outcome: %+v", res.Outcomes[0])
	}
	if rec.Snapshot().Counters["supervise/kills/deadline"] != 1 {
		t.Fatalf("counters: %v", rec.Snapshot().Counters)
	}
}

// TestSuperviseChaosKillBalance checks the supervisor-side kill site: every
// injected kill decision lands as exactly one kill counter, and the run
// still converges to the byte-identical topology.
func TestSuperviseChaosKillBalance(t *testing.T) {
	cfg := testCfg(2)
	want := unshardedTopology(t, cfg)
	// Workers are slowed per node so attempts span several heartbeat polls,
	// giving the kill site real shots at a live worker.
	inj := chaos.New(3, []chaos.Rule{
		{Site: chaos.SiteWorkerKill, Kind: chaos.KindError, Rate: 0.15},
		{Site: chaos.SiteShardSlow, Kind: chaos.KindDelay, Rate: 1},
	})
	inj.SetDelay(2 * time.Millisecond)
	dir := t.TempDir()
	rec := obs.New()
	res, err := Run(context.Background(), Options{
		Shards:      2,
		N:           cfg.N,
		JournalPath: func(s int) string { return filepath.Join(dir, fmt.Sprintf("shard-%d.journal", s)) },
		Launch:      workerLauncher(cfg),
		Retries:     40,
		PollEvery:   2 * time.Millisecond,
		Seed:        cfg.Seed,
		Chaos:       inj,
		Obs:         rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete() {
		t.Fatalf("failed shards %v under kill chaos", res.Failed)
	}
	kills := inj.Injected(chaos.SiteWorkerKill, chaos.KindError)
	if got := rec.Snapshot().Counters["supervise/kills/chaos"]; got != kills {
		t.Fatalf("kill accounting does not balance: counter %d, injected %d", got, kills)
	}
	merged := mergeOutcomes(t, cfg, res)
	if merged.Graph.String() != want {
		t.Fatal("topology under kill chaos differs from unsharded")
	}
}

// TestSuperviseOptionsValidation pins the option errors.
func TestSuperviseOptionsValidation(t *testing.T) {
	base := Options{
		Shards:      1,
		N:           10,
		JournalPath: func(int) string { return "x" },
		Launch:      FuncLauncher{Run: func(context.Context, Attempt) error { return nil }},
	}
	cases := []func(*Options){
		func(o *Options) { o.Shards = 0 },
		func(o *Options) { o.N = 0 },
		func(o *Options) { o.JournalPath = nil },
		func(o *Options) { o.Launch = nil },
		func(o *Options) { o.Retries = -1 },
	}
	for i, mutate := range cases {
		o := base
		mutate(&o)
		if _, err := Run(context.Background(), o); err == nil {
			t.Fatalf("case %d: invalid options accepted", i)
		}
	}
}

// TestSuperviseInterrupted checks cancellation surfaces as an error with
// partial outcomes rather than hanging.
func TestSuperviseInterrupted(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	launch := FuncLauncher{Run: func(ctx context.Context, a Attempt) error {
		cancel() // the run is interrupted while the worker is live
		<-ctx.Done()
		return ctx.Err()
	}}
	dir := t.TempDir()
	res, err := Run(ctx, Options{
		Shards:      1,
		N:           10,
		JournalPath: func(int) string { return filepath.Join(dir, "s.journal") },
		Launch:      launch,
		PollEvery:   2 * time.Millisecond,
	})
	if err == nil {
		t.Fatal("interrupted run returned nil error")
	}
	if res == nil || len(res.Outcomes) != 1 || res.Outcomes[0].Completed {
		t.Fatalf("interrupted result: %+v", res)
	}
}

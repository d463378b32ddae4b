package experiments

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tends/internal/core"
	"tends/internal/diffusion"
	"tends/internal/graph"
	"tends/internal/metrics"
)

// withAlgoHook installs a fake implementation for one algorithm name and
// restores the hook table when the test ends.
func withAlgoHook(t *testing.T, algo Algorithm, fn func(ctx context.Context, g *graph.Directed, sim *diffusion.Result) (metrics.PRF, error)) {
	t.Helper()
	prev := algoHooks
	algoHooks = map[Algorithm]func(context.Context, *graph.Directed, *diffusion.Result) (metrics.PRF, error){algo: fn}
	for k, v := range prev {
		if k != algo {
			algoHooks[k] = v
		}
	}
	t.Cleanup(func() { algoHooks = prev })
}

// A panicking algorithm must be contained to its own cells: every other
// cell completes normally, the panic is recorded as the cell's error, and
// the run itself does not fail — at any worker count.
func TestRunPanicContained(t *testing.T) {
	const faulty = Algorithm("PANICKY")
	withAlgoHook(t, faulty, func(ctx context.Context, g *graph.Directed, sim *diffusion.Result) (metrics.PRF, error) {
		panic("injected algorithm panic")
	})
	fig := tinyFigure([]Algorithm{AlgoLIFT, faulty})
	for _, workers := range []int{1, 8} {
		ms, rs, err := RunContext(context.Background(), fig, Config{Seed: 21, Workers: workers}, nil)
		if err != nil {
			t.Fatalf("workers=%d: run failed: %v", workers, err)
		}
		for _, m := range ms {
			switch m.Algorithm {
			case faulty:
				if m.Err == nil || !strings.Contains(m.Err.Error(), "injected algorithm panic") {
					t.Fatalf("workers=%d: panic not recorded: %v", workers, m.Err)
				}
			default:
				if m.Err != nil {
					t.Fatalf("workers=%d: healthy cell %s/%s poisoned: %v", workers, m.Point, m.Algorithm, m.Err)
				}
			}
		}
		if rs.FailedCells != len(fig.Points) {
			t.Fatalf("workers=%d: FailedCells = %d, want %d", workers, rs.FailedCells, len(fig.Points))
		}
	}
}

// A panicking workload generator is caught inside the sharing sync.Once, so
// every algorithm at the cell sees the same contained error instead of a
// nil-graph crash.
func TestRunWorkloadPanicContained(t *testing.T) {
	fig := tinyFigure([]Algorithm{AlgoTENDS, AlgoLIFT})
	fig.Points[0].Workload.Network = func(seed int64) (*graph.Directed, error) {
		panic("injected workload panic")
	}
	ms, rs, err := RunContext(context.Background(), fig, Config{Seed: 22, Workers: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range ms {
		if m.Point == "p1" {
			if m.Err == nil || !strings.Contains(m.Err.Error(), "injected workload panic") {
				t.Fatalf("workload panic not recorded for %s: %v", m.Algorithm, m.Err)
			}
		} else if m.Err != nil {
			t.Fatalf("healthy point poisoned: %v", m.Err)
		}
	}
	if rs.FailedCells != 2 {
		t.Fatalf("FailedCells = %d, want 2", rs.FailedCells)
	}
}

// A cell exceeding Config.CellTimeout must report a deadline error while
// the rest of the sweep completes.
func TestRunCellTimeout(t *testing.T) {
	const slow = Algorithm("SLOW")
	withAlgoHook(t, slow, func(ctx context.Context, g *graph.Directed, sim *diffusion.Result) (metrics.PRF, error) {
		<-ctx.Done() // a runaway loop that only stops cooperatively
		return metrics.PRF{}, ctx.Err()
	})
	fig := tinyFigure([]Algorithm{slow, AlgoLIFT})
	ms, rs, err := RunContext(context.Background(), fig, Config{Seed: 23, Workers: 4, CellTimeout: 30 * time.Millisecond}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range ms {
		switch m.Algorithm {
		case slow:
			if !errors.Is(m.Err, context.DeadlineExceeded) {
				t.Fatalf("timed-out cell error = %v, want deadline exceeded", m.Err)
			}
		default:
			if m.Err != nil {
				t.Fatalf("healthy cell failed: %v", m.Err)
			}
		}
	}
	if rs.FailedCells != len(fig.Points) {
		t.Fatalf("FailedCells = %d, want %d", rs.FailedCells, len(fig.Points))
	}
}

// failOnSeeds builds a network source that errors on the given seeds and
// produces the tiny chain workload otherwise.
func failOnSeeds(bad ...int64) func(int64) (*graph.Directed, error) {
	set := make(map[int64]bool, len(bad))
	for _, s := range bad {
		set[s] = true
	}
	return func(seed int64) (*graph.Directed, error) {
		if set[seed] {
			return nil, errors.New("transient workload failure")
		}
		g := graph.Chain(12)
		g.Symmetrize()
		return g, nil
	}
}

// Retries must re-run a failed task under a fresh derived seed and recover
// it; the result must be identical at any worker count.
func TestRunRetriesRecover(t *testing.T) {
	base := int64(24)
	// The primary seed of (point 0, repeat 1) fails; its first retry seed
	// succeeds, so one retry recovers the task.
	network := failOnSeeds(cellSeed(base, 0, 1))
	fig := Figure{
		ID:         "FigRetry",
		Algorithms: []Algorithm{AlgoTENDS, AlgoLIFT},
		Points: []Point{
			{Label: "p1", Workload: Workload{Network: network, Mu: 0.4, Alpha: 0.1, Beta: 60}},
			{Label: "p2", Workload: Workload{Network: network, Mu: 0.4, Alpha: 0.1, Beta: 90}},
		},
	}
	cfg := Config{Seed: base, Repeats: 2, Retries: 2, Workers: 1}
	serial, rs, err := RunContext(context.Background(), fig, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range serial {
		if m.Err != nil || m.FailedRepeats != 0 {
			t.Fatalf("retried cell still failed: %+v", m)
		}
	}
	// Both algorithms of (point 0, repeat 1) fail independently (the retry
	// workload is per-task, not shared), so two retries run, two recover.
	if rs.Retried != 2 || rs.Recovered != 2 {
		t.Fatalf("stats = %d retried / %d recovered, want 2/2", rs.Retried, rs.Recovered)
	}
	for _, workers := range []int{4, 8} {
		cfg.Workers = workers
		par, prs, err := RunContext(context.Background(), fig, cfg, nil)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		sameMeasurements(t, serial, par)
		if prs.Retried != rs.Retried || prs.Recovered != rs.Recovered {
			t.Fatalf("workers=%d: stats differ: %+v vs %+v", workers, prs, rs)
		}
	}
}

// When every retry fails too, the cell keeps its error and the retry count
// reflects each exhausted attempt.
func TestRunRetriesExhausted(t *testing.T) {
	base := int64(25)
	bad := []int64{cellSeed(base, 0, 0)}
	for attempt := 1; attempt <= 2; attempt++ {
		bad = append(bad, retrySeed(base, 0, 0, attempt))
	}
	fig := Figure{
		ID:         "FigExhaust",
		Algorithms: []Algorithm{AlgoLIFT},
		Points:     []Point{{Label: "p1", Workload: Workload{Network: failOnSeeds(bad...), Mu: 0.4, Alpha: 0.1, Beta: 60}}},
	}
	ms, rs, err := RunContext(context.Background(), fig, Config{Seed: base, Retries: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ms[0].Err == nil || ms[0].Completed != 0 {
		t.Fatalf("exhausted cell should fail: %+v", ms[0])
	}
	if rs.Retried != 2 || rs.Recovered != 0 || rs.FailedCells != 1 {
		t.Fatalf("stats = %+v, want 2 retried, 0 recovered, 1 failed cell", rs)
	}
}

// Cancelling the run context stops the sweep: in-flight cells drain, unrun
// cells are marked cancelled, and the measurement slice stays complete and
// ordered.
func TestRunContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var once sync.Once
	const tripwire = Algorithm("TRIPWIRE")
	withAlgoHook(t, tripwire, func(hctx context.Context, g *graph.Directed, sim *diffusion.Result) (metrics.PRF, error) {
		once.Do(cancel) // simulate SIGINT arriving mid-sweep
		<-hctx.Done()
		return metrics.PRF{}, hctx.Err()
	})
	fig := tinyFigure([]Algorithm{tripwire, AlgoLIFT})
	ms, rs, err := RunContext(ctx, fig, Config{Seed: 26, Workers: 1}, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(ms) != len(fig.Points)*2 {
		t.Fatalf("measurement slice incomplete: %d cells", len(ms))
	}
	if rs.CancelledCells == 0 {
		t.Fatal("no cells recorded as cancelled")
	}
	cancelled := 0
	for _, m := range ms {
		if errors.Is(m.Err, context.Canceled) {
			cancelled++
		}
	}
	if cancelled != rs.CancelledCells {
		t.Fatalf("cancelled cells: stats say %d, measurements say %d", rs.CancelledCells, cancelled)
	}
}

// A checkpointed run must be restorable: the journal round-trips every cell,
// a resumed run executes nothing and reproduces the measurements exactly,
// and a partially resumed run re-executes only the missing cells.
func TestCheckpointResumeRoundTrip(t *testing.T) {
	fig := tinyFigure([]Algorithm{AlgoTENDS, AlgoLIFT})
	j, path := newJournal(t, 27, 2)
	full, _, err := RunContext(context.Background(), fig, Config{Seed: 27, Repeats: 2, Checkpoint: j}, nil)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()

	cp, err := loadJournal(t, path, true)
	if err != nil {
		t.Fatal(err)
	}
	cells := cp.Cells
	if cp.Header.Seed != 27 || cp.Header.Repeats != 2 || cp.Header.Type != "header" {
		t.Fatalf("header round-trip: %+v", cp.Header)
	}
	if len(cells) != len(full) {
		t.Fatalf("journal has %d cells, want %d", len(cells), len(full))
	}

	// Full resume: no workload generation, everything restored.
	var gens atomic.Int32
	resumeFig := tinyFigure([]Algorithm{AlgoTENDS, AlgoLIFT})
	counting := func(seed int64) (*graph.Directed, error) {
		gens.Add(1)
		g := graph.Chain(12)
		g.Symmetrize()
		return g, nil
	}
	for pi := range resumeFig.Points {
		resumeFig.Points[pi].Workload.Network = counting
	}
	var progress bytes.Buffer
	restored, rs, err := RunContext(context.Background(), resumeFig, Config{Seed: 27, Repeats: 2, Resume: cells}, &progress)
	if err != nil {
		t.Fatal(err)
	}
	sameMeasurements(t, full, restored)
	if gens.Load() != 0 {
		t.Fatalf("fully resumed run generated %d workloads", gens.Load())
	}
	if rs.Restored != len(full) {
		t.Fatalf("Restored = %d, want %d", rs.Restored, len(full))
	}
	if !strings.Contains(progress.String(), "(checkpoint)") {
		t.Fatalf("progress lines missing checkpoint marker:\n%s", progress.String())
	}

	// Partial resume: drop one cell; only its point's workloads regenerate.
	delete(cells, CellKey{Figure: fig.ID, PointIndex: 1, Algorithm: AlgoTENDS})
	gens.Store(0)
	partial, rs, err := RunContext(context.Background(), resumeFig, Config{Seed: 27, Repeats: 2, Resume: cells}, nil)
	if err != nil {
		t.Fatal(err)
	}
	sameMeasurements(t, full, partial)
	if got := gens.Load(); got != 2 { // point 1 × 2 repeats
		t.Fatalf("partial resume generated %d workloads, want 2", got)
	}
	if rs.Restored != len(full)-1 {
		t.Fatalf("Restored = %d, want %d", rs.Restored, len(full)-1)
	}
}

// An interrupted run's journal must only contain finished cells, and
// resuming from it must reproduce the uninterrupted measurements.
func TestCheckpointResumeAfterCancel(t *testing.T) {
	fig := tinyFigure([]Algorithm{AlgoTENDS, AlgoLIFT})
	baseline, _, err := RunContext(context.Background(), fig, Config{Seed: 28, Repeats: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Interrupt right after the first TENDS cell's last repeat completes, so
	// exactly one cell reaches the journal before the cancellation lands.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var calls atomic.Int32
	withAlgoHook(t, AlgoTENDS, func(hctx context.Context, g *graph.Directed, sim *diffusion.Result) (metrics.PRF, error) {
		res, err := runAlgoReal(hctx, g, sim)
		if calls.Add(1) == 2 {
			cancel()
		}
		return res, err
	})
	j, path := newJournal(t, 28, 2)
	_, _, err = RunContext(ctx, fig, Config{Seed: 28, Repeats: 2, Workers: 1, Checkpoint: j}, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	j.Close()
	algoHooks = nil // restore the real TENDS for the resumed run

	cp, err := loadJournal(t, path, false)
	if err != nil {
		t.Fatal(err)
	}
	cells := cp.Cells
	if len(cells) != 1 {
		t.Fatalf("interrupted run journaled %d cells, want exactly the 1 finished cell", len(cells))
	}
	for key, m := range cells {
		if m.Err != nil {
			t.Fatalf("journaled cell %v carries an error: %v", key, m.Err)
		}
	}
	resumed, _, err := RunContext(context.Background(), fig, Config{Seed: 28, Repeats: 2, Resume: cells}, nil)
	if err != nil {
		t.Fatal(err)
	}
	sameMeasurements(t, baseline, resumed)
}

// runAlgoReal runs the real TENDS implementation, bypassing any installed
// hook — used by tests that interrupt an otherwise genuine sweep.
func runAlgoReal(ctx context.Context, g *graph.Directed, sim *diffusion.Result) (metrics.PRF, error) {
	res, err := core.InferContext(ctx, sim.Statuses, core.Options{})
	if err != nil {
		return metrics.PRF{}, err
	}
	return metrics.Score(g, res.Graph), nil
}

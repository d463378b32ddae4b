package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"tends/internal/experiments"
	"tends/internal/journal"
	"tends/internal/obs"
)

func TestParseAlgos(t *testing.T) {
	algos, err := parseAlgos("TENDS, netinf ,PATH")
	if err != nil {
		t.Fatal(err)
	}
	if len(algos) != 3 {
		t.Fatalf("algos = %v", algos)
	}
	if _, err := parseAlgos("bogus"); err == nil {
		t.Fatal("unknown algorithm should fail")
	}
	if _, err := parseAlgos(" , "); err == nil {
		t.Fatal("empty list should fail")
	}
}

func TestRunValidation(t *testing.T) {
	ctx := context.Background()
	if _, err := run(ctx, runOpts{repeats: 1, seed: 1, quiet: true}); err == nil {
		t.Fatal("no figure selected should fail")
	}
	if _, err := run(ctx, runOpts{figNum: 99, repeats: 1, seed: 1, quiet: true}); err == nil {
		t.Fatal("unknown figure should fail")
	}
	if _, err := run(ctx, runOpts{figNum: 1, repeats: 1, seed: 1, algos: "bogus", quiet: true}); err == nil {
		t.Fatal("bad -algos should fail before any work")
	}
	if _, err := run(ctx, runOpts{figNum: 1, repeats: 1, seed: 1, quiet: true,
		checkpoint: "a.journal", resume: "b.journal"}); err == nil {
		t.Fatal("conflicting -checkpoint/-resume paths should fail")
	}
	if _, err := run(ctx, runOpts{figNum: 1, repeats: 1, seed: 1, quiet: true,
		resume: t.TempDir() + "/missing.journal"}); err == nil {
		t.Fatal("missing -resume journal should fail")
	}
	for name, o := range map[string]runOpts{
		"negative repeats":      {figNum: 1, repeats: -1, seed: 1, quiet: true},
		"negative workers":      {figNum: 1, repeats: 1, workers: -2, seed: 1, quiet: true},
		"negative retries":      {figNum: 1, repeats: 1, retries: -1, seed: 1, quiet: true},
		"negative combo budget": {figNum: 1, repeats: 1, comboBudget: -1, seed: 1, quiet: true},
		"negative breaker":      {figNum: 1, repeats: 1, breaker: -3, seed: 1, quiet: true},
		"negative deadline":     {figNum: 1, repeats: 1, nodeDeadline: -time.Second, seed: 1, quiet: true},
		"negative backoff":      {figNum: 1, repeats: 1, retryBackoff: -time.Millisecond, seed: 1, quiet: true},
	} {
		if _, err := run(ctx, o); err == nil || !strings.Contains(err.Error(), "usage:") {
			t.Fatalf("%s should fail with a usage error, got %v", name, err)
		}
	}
	if _, err := run(ctx, runOpts{figNum: 1, repeats: 1, seed: 1, quiet: true,
		chaosSpec: "bogus.site=0.5"}); err == nil || !strings.Contains(err.Error(), "-chaos") {
		t.Fatal("bad -chaos spec should fail before any work")
	}
	if _, err := run(ctx, runOpts{figNum: 1, repeats: 1, seed: 1, quiet: true,
		chaosSpec: "experiments.cell.infer=2"}); err == nil {
		t.Fatal("out-of-range chaos rate should fail before any work")
	}
}

// A journal with a torn tail (a crash mid-append) still resumes: the intact
// cells are restored, the tail is truncated so new cells append cleanly,
// and the damage lands on the recorder so an -obs-json snapshot records it.
func TestLoadResumeCountsCorruptLines(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.journal")
	j, err := experiments.CreateJournal(path, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	meas := experiments.Measurement{Figure: "FigX", Point: "p1", Algorithm: experiments.AlgoLIFT}
	if err := j.Append(0, meas); err != nil {
		t.Fatal(err)
	}
	j.Close()
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	torn := append(append([]byte(nil), clean...), 50, 0, 0, 0, '{', '"')
	tear := func() {
		t.Helper()
		if err := os.WriteFile(path, torn, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	tear()
	rec := obs.New()
	j, cells, err := resumeJournal(path, 5, 1, false, rec)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if len(cells) != 1 {
		t.Fatalf("restored %d cells, want 1", len(cells))
	}
	if got := rec.Snapshot().Counters["benchfig/journal_damage"]; got != 1 {
		t.Fatalf("journal_damage = %d, want 1", got)
	}
	if got, _ := os.ReadFile(path); !bytes.Equal(got, clean) {
		t.Fatal("lenient resume did not truncate the torn tail")
	}
	// A nil recorder must not panic — resume without -obs-json.
	tear()
	if j, _, err := resumeJournal(path, 5, 1, false, nil); err != nil {
		t.Fatal(err)
	} else {
		j.Close()
	}
	// -resume-strict refuses the same damaged journal with the byte position
	// and leaves it as it was.
	tear()
	_, _, err = resumeJournal(path, 5, 1, true, nil)
	if !errors.Is(err, journal.ErrCorrupt) || !strings.Contains(err.Error(), fmt.Sprintf("byte %d", len(clean))) {
		t.Fatalf("strict resume of damaged journal: err = %v, want ErrCorrupt at byte %d", err, len(clean))
	}
	if got, _ := os.ReadFile(path); !bytes.Equal(got, torn) {
		t.Fatal("strict resume modified the journal")
	}
	// A journal from another run is refused.
	if _, _, err := resumeJournal(path, 6, 1, false, nil); err == nil || !strings.Contains(err.Error(), "seed 5") {
		t.Fatalf("seed mismatch accepted: %v", err)
	}
}

func TestRunAblationValidation(t *testing.T) {
	// Unknown names must fail; note the workload is simulated before the
	// dispatch, so this still costs one NetSci simulation (~1s).
	if err := runAblation("bogus", 1); err == nil {
		t.Fatal("unknown ablation should fail")
	}
	if err := runExtension("bogus", 1); err == nil {
		t.Fatal("unknown extension should fail")
	}
}

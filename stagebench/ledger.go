package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"tends/internal/obs"
)

// span accumulates the benchmark-owned timing of one layer call site.
type span struct {
	seconds    float64
	allocBytes uint64
	mallocs    uint64
}

// ledger times calls into the program's layers from outside. Untraced, a
// span costs two clock reads. Traced, it also takes MemStats deltas, and the
// context handed to the program carries an obs.Recorder whose totals the
// per-layer metrics copy.
type ledger struct {
	traced bool
	rec    *obs.Recorder
	spans  map[string]*span
}

func newLedger(traced bool) *ledger {
	l := &ledger{traced: traced, spans: make(map[string]*span)}
	if traced {
		l.rec = obs.New()
	}
	return l
}

// ctx attaches the ledger's recorder, if any, to ctx.
func (l *ledger) ctx(ctx context.Context) context.Context {
	if l.rec == nil {
		return ctx
	}
	return obs.With(ctx, l.rec)
}

// time runs fn inside the named span and returns fn's wall time.
func (l *ledger) time(name string, fn func() error) (time.Duration, error) {
	var before runtime.MemStats
	if l.traced {
		runtime.ReadMemStats(&before)
	}
	start := time.Now()
	err := fn()
	d := time.Since(start)
	s := l.spans[name]
	if s == nil {
		s = &span{}
		l.spans[name] = s
	}
	s.seconds += d.Seconds()
	if l.traced {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		s.allocBytes += after.TotalAlloc - before.TotalAlloc
		s.mallocs += after.Mallocs - before.Mallocs
	}
	return d, err
}

// seconds returns the named span's total time; 0 when it never ran.
func (l *ledger) seconds(name string) float64 {
	if s := l.spans[name]; s != nil {
		return s.seconds
	}
	return 0
}

// obsSeconds and obsCount copy a total the program's own telemetry recorded.
func (l *ledger) obsSeconds(name string) float64 {
	return l.rec.Histogram(name).Sum().Seconds()
}

func (l *ledger) obsCount(name string) float64 {
	return float64(l.rec.Counter(name).Value())
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// A run builds its inputs at least minSetupReps times and until setupBudget
// is spent, at most maxSetupReps times; setup_s is the median, so that one
// slow build does not move it.
const (
	minSetupReps = 3
	maxSetupReps = 15
	setupBudget  = 3 * time.Second
)

// repeatSetup calls once, which builds the inputs and returns the time it
// took, as often as the constants above say, and returns the median time.
func repeatSetup(once func() (time.Duration, error)) (float64, error) {
	var times []float64
	start := time.Now()
	for len(times) < minSetupReps || (len(times) < maxSetupReps && time.Since(start) < setupBudget) {
		d, err := once()
		if err != nil {
			return 0, err
		}
		times = append(times, d.Seconds())
	}
	return median(times), nil
}

// settle collects garbage and returns freed memory to the OS, then restarts
// the kernel's peak-RSS counter (VmHWM), so that each timed region starts
// from the same state and peakRSSMiB reads that region's own peak.
func settle() error {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// peakRSSMiB reads the peak resident set size since the last settle.
func peakRSSMiB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("read peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kib, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(rest, "kB")), 64)
			return kib / 1024, err
		}
	}
	return 0, errors.New("no VmHWM line in /proc/self/status")
}

// gcState is the part of MemStats the runtime.* metrics difference.
type gcState struct {
	numGC      uint32
	totalAlloc uint64
}

func readGC() gcState {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return gcState{numGC: ms.NumGC, totalAlloc: ms.TotalAlloc}
}

// putRuntime stores the GC cycles and allocation between two readings.
func putRuntime(m map[string]float64, before, after gcState) {
	m["runtime.gc_cycles"] = float64(after.numGC - before.numGC)
	m["runtime.alloc_mb"] = float64(after.totalAlloc-before.totalAlloc) / (1 << 20)
}

// median returns the middle of xs (mean of the two middles for an even
// count); 0 for none. xs is not modified.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; 0 for none. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// splitmix64 is the SplitMix64 finalizer, used to derive independent
// sub-seeds from the workload seed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// subSeed derives a non-negative seed from a base seed and a path of tags.
func subSeed(base int64, tags ...int64) int64 {
	x := splitmix64(uint64(base))
	for _, t := range tags {
		x = splitmix64(x ^ uint64(t))
	}
	return int64(x >> 1)
}

package experiments

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"tends/internal/journal"
)

// CellKey identifies one (figure, point, algorithm) cell across runs. The
// point is keyed by index, not label, so resume stays exact even if two
// points share a label; the label is cross-checked on restore.
type CellKey struct {
	Figure     string
	PointIndex int
	Algorithm  Algorithm
}

// JournalHeader is the header of a checkpoint journal. A resumed run must
// match the header's seed and repeats, otherwise restored cells would be
// silently inconsistent with freshly computed ones.
type JournalHeader struct {
	Type    string `json:"type"` // "header"
	Seed    int64  `json:"seed"`
	Repeats int    `json:"repeats"`
}

// journalCell is one completed (point, algorithm) cell, serialized as one
// JSON journal record. Floats round-trip exactly through encoding/json
// (shortest representation), so a restored cell reproduces the original
// report bytes.
type journalCell struct {
	Type          string  `json:"type"` // "cell"
	Figure        string  `json:"figure"`
	PointIndex    int     `json:"point_index"`
	Point         string  `json:"point"`
	Algorithm     string  `json:"algorithm"`
	F             float64 `json:"f"`
	FStd          float64 `json:"f_std"`
	Precision     float64 `json:"precision"`
	Recall        float64 `json:"recall"`
	RuntimeNS     int64   `json:"runtime_ns"`
	Completed     int     `json:"completed"`
	FailedRepeats int     `json:"failed_repeats"`
	DegradedNodes int     `json:"degraded_nodes,omitempty"`
	Error         string  `json:"error,omitempty"`
	// Scenario identity (see Measurement); omitempty keeps legacy clean-IC
	// records byte-identical to journals from before scenario support, and
	// WriteCSV re-normalizes the empty values on output.
	Model     string  `json:"model,omitempty"`
	Delay     string  `json:"delay,omitempty"`
	Missing   float64 `json:"missing,omitempty"`
	Uncertain float64 `json:"uncertain,omitempty"`
	// Phase breakdown (see Measurement); omitempty keeps records from runs
	// without timings compact, and old readers ignore the unknown keys.
	WorkloadNS int64 `json:"workload_ns,omitempty"`
	InferNS    int64 `json:"infer_ns,omitempty"`
	MetricsNS  int64 `json:"metrics_ns,omitempty"`
}

// Journal appends completed-cell records to a checkpoint journal (see
// package journal for the format). Appends are serialized and unbuffered:
// each record reaches the file before Append returns, so a run killed
// mid-sweep loses at most the cells still in flight. Appends are not
// synced; a checkpoint guards against a killed process, not a lost machine.
type Journal struct {
	log *journal.Log
}

// CreateJournal starts a fresh checkpoint journal at path, replacing any
// existing file.
func CreateJournal(path string, seed int64, repeats int) (*Journal, error) {
	hdr, err := json.Marshal(JournalHeader{Type: "header", Seed: seed, Repeats: repeats})
	if err != nil {
		return nil, err
	}
	log, err := journal.Create(path, hdr)
	if err != nil {
		return nil, err
	}
	return &Journal{log: log}, nil
}

// Checkpoint is what a resumed checkpoint journal holds: its header, the
// completed cells (a later record for the same cell wins), and where
// reading stopped early, if it did. Cells past the damage are lost and get
// recomputed.
type Checkpoint struct {
	Header JournalHeader
	Cells  map[CellKey]Measurement
	Damage *journal.Damage
}

// ResumeJournal reopens the checkpoint journal at path to continue it. A
// damaged frame — a torn tail from a kill mid-append, or mid-file
// corruption — ends the read; leniently it is truncated away so appended
// cells start on a frame boundary, strictly it is refused with an error
// wrapping journal.ErrCorrupt. A damaged header or a record that passes
// its checksum but is not a valid cell is an error in either mode.
func ResumeJournal(path string, strict bool) (*Journal, *Checkpoint, error) {
	log, c, err := journal.Open(path, strict)
	if err != nil {
		return nil, nil, err
	}
	cp, err := decodeCheckpoint(c)
	if err != nil {
		log.Close()
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	return &Journal{log: log}, cp, nil
}

// Close closes the journal file.
func (j *Journal) Close() error { return j.log.Close() }

// Append records one completed cell. pointIndex is the cell's position in
// its figure's sweep, the resume key alongside the measurement's own
// figure/algorithm identity.
func (j *Journal) Append(pointIndex int, m Measurement) error {
	rec := journalCell{
		Type:          "cell",
		Figure:        m.Figure,
		PointIndex:    pointIndex,
		Point:         m.Point,
		Algorithm:     string(m.Algorithm),
		F:             m.F,
		FStd:          m.FStd,
		Precision:     m.Precision,
		Recall:        m.Recall,
		RuntimeNS:     int64(m.Runtime),
		Completed:     m.Completed,
		FailedRepeats: m.FailedRepeats,
		DegradedNodes: m.DegradedNodes,
		WorkloadNS:    int64(m.PhaseWorkload),
		InferNS:       int64(m.PhaseInfer),
		MetricsNS:     int64(m.PhaseMetrics),
		Model:         m.Model,
		Delay:         m.Delay,
		Missing:       m.Missing,
		Uncertain:     m.Uncertain,
	}
	// Keep legacy clean-IC records identical to pre-scenario journals.
	if rec.Model == "ic" {
		rec.Model = ""
	}
	if rec.Delay == "exp" {
		rec.Delay = ""
	}
	if m.Err != nil {
		rec.Error = m.Err.Error()
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	return j.log.Append(b)
}

// decodeCheckpoint parses a checkpoint journal's header and cell records.
func decodeCheckpoint(c journal.Contents) (*Checkpoint, error) {
	cp := &Checkpoint{Cells: make(map[CellKey]Measurement), Damage: c.Damage}
	if err := json.Unmarshal(c.Header, &cp.Header); err != nil || cp.Header.Type != "header" {
		return nil, fmt.Errorf("%w: not a checkpoint journal header", journal.ErrCorrupt)
	}
	for i, payload := range c.Records {
		var rec journalCell
		if err := json.Unmarshal(payload, &rec); err != nil || rec.Type != "cell" ||
			rec.PointIndex < 0 || rec.Figure == "" || rec.Algorithm == "" {
			return nil, fmt.Errorf("%w: checkpoint record %d is not a valid cell", journal.ErrCorrupt, i)
		}
		m := Measurement{
			Figure:        rec.Figure,
			Point:         rec.Point,
			Algorithm:     Algorithm(rec.Algorithm),
			F:             rec.F,
			FStd:          rec.FStd,
			Precision:     rec.Precision,
			Recall:        rec.Recall,
			Runtime:       time.Duration(rec.RuntimeNS),
			Completed:     rec.Completed,
			FailedRepeats: rec.FailedRepeats,
			DegradedNodes: rec.DegradedNodes,
			PhaseWorkload: time.Duration(rec.WorkloadNS),
			PhaseInfer:    time.Duration(rec.InferNS),
			PhaseMetrics:  time.Duration(rec.MetricsNS),
			Model:         rec.Model,
			Delay:         rec.Delay,
			Missing:       rec.Missing,
			Uncertain:     rec.Uncertain,
		}
		if m.Model == "" {
			m.Model = "ic"
		}
		if m.Delay == "" {
			m.Delay = "exp"
		}
		if rec.Error != "" {
			m.Err = errors.New(rec.Error)
		}
		cp.Cells[CellKey{Figure: rec.Figure, PointIndex: rec.PointIndex, Algorithm: m.Algorithm}] = m
	}
	return cp, nil
}

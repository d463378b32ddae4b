package experiments

import (
	"encoding/json"
	"errors"
	"fmt"

	"tends/internal/journal"
)

// ShardHeader is the header of a shard journal — one shard's slice of a
// sharded scale run (cmd/benchfig -shard i/k). It carries the full run
// identity so a merge can refuse journals produced under different
// configurations, plus the shard's selected pruning threshold: every shard
// computes the global τ from the complete pairwise stage, so the merge
// cross-checks that all shards agree bit-for-bit before trusting that their
// parent sets compose into the unsharded topology.
type ShardHeader struct {
	Type       string  `json:"type"` // "shard_header"
	ShardIndex int     `json:"shard_index"`
	ShardCount int     `json:"shard_count"`
	N          int     `json:"n"`
	Beta       int     `json:"beta"`
	Seed       int64   `json:"seed"`
	Sparse     bool    `json:"sparse"`
	Threshold  float64 `json:"threshold"`
}

// SameRun reports whether two headers describe the same sharded run: the
// identity fields that must match for their node records to compose.
// Threshold is compared separately (bit-identical) by the merges.
func (h ShardHeader) SameRun(o ShardHeader) bool {
	return h.N == o.N && h.Beta == o.Beta && h.Seed == o.Seed &&
		h.Sparse == o.Sparse && h.ShardCount == o.ShardCount
}

// shardNode is one node's inferred parent set. Only nodes owned by the
// shard (node % shard_count == shard_index) appear.
type shardNode struct {
	Type    string `json:"type"` // "node"
	Node    int    `json:"node"`
	Parents []int  `json:"parents"`
}

// ShardJournal streams one shard's results to a journal file (see package
// journal), one node record per append, unsynced like checkpoint appends.
type ShardJournal struct {
	path string
	log  *journal.Log
}

// NewShardJournal prepares a shard journal at path without writing
// anything: the file is created by WriteHeader. Callers that learn the
// threshold mid-run (the incremental journaling path: core's OnSearchStart
// hook fires once τ is selected) write the header from the hook.
func NewShardJournal(path string) *ShardJournal {
	return &ShardJournal{path: path}
}

// WriteHeader creates the journal file with h as its header, replacing any
// existing file.
func (s *ShardJournal) WriteHeader(h ShardHeader) error {
	h.Type = "shard_header"
	b, err := json.Marshal(h)
	if err != nil {
		return err
	}
	if s.log, err = journal.Create(s.path, b); err != nil {
		return fmt.Errorf("write shard header: %w", err)
	}
	return nil
}

// AppendNode records one node's parent set.
func (s *ShardJournal) AppendNode(node int, parents []int) error {
	if s.log == nil {
		return errors.New("shard journal: node record before header")
	}
	if parents == nil {
		parents = []int{}
	}
	b, err := json.Marshal(shardNode{Type: "node", Node: node, Parents: parents})
	if err != nil {
		return err
	}
	return s.log.Append(b)
}

// Close closes the journal file, if one was created.
func (s *ShardJournal) Close() error {
	if s.log == nil {
		return nil
	}
	return s.log.Close()
}

// LoadShardJournal reads one shard journal without modifying it. Reading
// stops at the first damaged frame, whose position the returned Damage
// reports (nil for a clean journal); the nodes before it are returned. In
// strict mode any damage is instead an error wrapping journal.ErrCorrupt.
// Both modes refuse a damaged or invalid header and a record that passes
// its checksum yet is not a node of this shard — a whole record with bad
// values was written wrong, so no record can be trusted.
func LoadShardJournal(path string, strict bool) (*ShardHeader, map[int][]int, *journal.Damage, error) {
	c, err := journal.Read(path)
	if err != nil {
		return nil, nil, nil, err
	}
	if strict && c.Damage != nil {
		return nil, nil, c.Damage, fmt.Errorf("%w: %s: %w", journal.ErrCorrupt, path, c.Damage)
	}
	h, nodes, err := decodeShard(c)
	if err != nil {
		return nil, nil, c.Damage, fmt.Errorf("%s: %w", path, err)
	}
	return h, nodes, c.Damage, nil
}

// ReadShardHeader reads only the journal's header, without parsing node
// records, for cheap up-front validation of a shard set (which indices are
// present, do identities match) before the expensive full loads.
func ReadShardHeader(path string) (*ShardHeader, error) {
	b, err := journal.ReadHeader(path)
	if err != nil {
		return nil, err
	}
	return decodeShardHeader(b)
}

func decodeShardHeader(b []byte) (*ShardHeader, error) {
	var h ShardHeader
	if err := json.Unmarshal(b, &h); err != nil || h.Type != "shard_header" {
		return nil, fmt.Errorf("%w: not a shard journal header", journal.ErrCorrupt)
	}
	if h.ShardCount < 1 || h.ShardIndex < 0 || h.ShardIndex >= h.ShardCount || h.N < 1 {
		return nil, fmt.Errorf("%w: shard journal: invalid shard identity %d/%d (n=%d)", journal.ErrCorrupt, h.ShardIndex, h.ShardCount, h.N)
	}
	return &h, nil
}

// decodeShard parses a shard journal's header and node records.
func decodeShard(c journal.Contents) (*ShardHeader, map[int][]int, error) {
	h, err := decodeShardHeader(c.Header)
	if err != nil {
		return nil, nil, err
	}
	nodes := make(map[int][]int, len(c.Records))
	for i, payload := range c.Records {
		var rec shardNode
		if err := json.Unmarshal(payload, &rec); err != nil || rec.Type != "node" {
			return nil, nil, fmt.Errorf("%w: shard journal record %d is not a node record", journal.ErrCorrupt, i)
		}
		if rec.Node < 0 || rec.Node >= h.N || rec.Node%h.ShardCount != h.ShardIndex {
			return nil, nil, fmt.Errorf("%w: shard journal record %d: node %d does not belong to shard %d/%d (n=%d)",
				journal.ErrCorrupt, i, rec.Node, h.ShardIndex, h.ShardCount, h.N)
		}
		if rec.Parents == nil {
			rec.Parents = []int{}
		}
		nodes[rec.Node] = rec.Parents
	}
	return h, nodes, nil
}

// ResumedShard is a partial shard journal reopened for node-level
// continuation: the header and completed nodes already on disk, plus a
// journal positioned to append the rest.
type ResumedShard struct {
	Header *ShardHeader
	Nodes  map[int][]int
	// TruncatedBytes is how much torn tail was cut before reopening for
	// append (0 when the journal ended cleanly).
	TruncatedBytes int64

	Journal *ShardJournal
}

// Close closes the underlying journal file.
func (r *ResumedShard) Close() error { return r.Journal.Close() }

// OpenShardResume reopens a partial shard journal for continuation. A torn
// tail — the normal state of a worker killed mid-append — is truncated
// away so the continuation starts on a frame boundary. Mid-file damage, a
// damaged header or an invalid record is an error wrapping
// journal.ErrCorrupt, and the caller should restart the shard from scratch.
func OpenShardResume(path string) (*ResumedShard, error) {
	log, c, err := journal.Open(path, false)
	if err != nil {
		return nil, fmt.Errorf("resume: %w", err)
	}
	h, nodes, err := decodeShard(c)
	if err == nil && c.Damage != nil && !c.Damage.Torn {
		err = fmt.Errorf("%w: %w", journal.ErrCorrupt, c.Damage)
	}
	if err != nil {
		log.Close()
		return nil, fmt.Errorf("resume %s: %w", path, err)
	}
	rs := &ResumedShard{Header: h, Nodes: nodes, Journal: &ShardJournal{path: path, log: log}}
	if c.Damage != nil {
		rs.TruncatedBytes = c.Size - c.Damage.Offset
	}
	return rs, nil
}

// MergeShardJournals validates a set of parsed shard journals and composes
// them into the full parent-set array: the degraded merge's checks (run
// identity, bit-identical thresholds) plus exactly the shard indices
// {0..k-1} with no duplicates and a parent set for every node.
func MergeShardJournals(headers []*ShardHeader, nodes []map[int][]int) ([][]int, *ShardHeader, error) {
	parents, ref, rep, err := MergeShardJournalsDegraded(headers, nodes)
	if err != nil {
		return nil, nil, err
	}
	seen := make(map[int]bool, len(headers))
	for _, h := range headers {
		if seen[h.ShardIndex] {
			return nil, nil, fmt.Errorf("merge: duplicate shard index %d", h.ShardIndex)
		}
		seen[h.ShardIndex] = true
	}
	if len(rep.MissingShards) > 0 {
		return nil, nil, fmt.Errorf("merge: have %d of %d shards, missing indices %v", len(headers), ref.ShardCount, rep.MissingShards)
	}
	for si, h := range headers {
		// Each shard owns ceil/floor of N/k nodes; verify it reported all.
		if owned := ShardOwnedNodes(ref.N, h.ShardIndex, ref.ShardCount); len(nodes[si]) != owned {
			return nil, nil, fmt.Errorf("merge: shard %d reported %d nodes, owns %d — journal truncated?",
				h.ShardIndex, len(nodes[si]), owned)
		}
	}
	return parents, ref, nil
}

// ShardOwnedNodes is how many of n nodes shard index owns under i-mod-count
// ownership.
func ShardOwnedNodes(n, index, count int) int {
	if count < 1 {
		count = 1
	}
	return (n - index + count - 1) / count
}

// MergeReport is the structured accounting of a degraded merge: which
// shards contributed, which are absent, and exactly which nodes the partial
// topology is missing — the supervisor's analogue of core's Degraded
// report. MergedNodes + len(MissingNodes) always equals N.
type MergeReport struct {
	N             int   `json:"n"`
	ShardCount    int   `json:"shard_count"`
	PresentShards []int `json:"present_shards"`
	MissingShards []int `json:"missing_shards"`
	MergedNodes   int   `json:"merged_nodes"`
	MissingNodes  []int `json:"missing_nodes"`
	Complete      bool  `json:"complete"`
}

// MergeShardJournalsDegraded composes whatever shard journals survived into
// the best partial topology available, with an explicit report of what is
// missing. Unlike the strict MergeShardJournals it tolerates absent shards,
// truncated journals, and duplicate shard indices (hedged attempts produce
// two journals for one shard; node results are deterministic, so duplicates
// must agree — disagreement is still a hard error, as are mismatched run
// identities and thresholds). Missing nodes keep empty parent sets in the
// returned array and are listed, ascending, in the report.
func MergeShardJournalsDegraded(headers []*ShardHeader, nodes []map[int][]int) ([][]int, *ShardHeader, *MergeReport, error) {
	if len(headers) == 0 {
		return nil, nil, nil, errors.New("merge: no shard journals")
	}
	if len(headers) != len(nodes) {
		return nil, nil, nil, fmt.Errorf("merge: %d headers but %d node sets", len(headers), len(nodes))
	}
	ref := headers[0]
	present := make(map[int]bool, len(headers))
	merged := make(map[int][]int)
	for si, h := range headers {
		if !h.SameRun(*ref) {
			return nil, nil, nil, fmt.Errorf("merge: shard %d/%d ran a different configuration than shard %d/%d",
				h.ShardIndex, h.ShardCount, ref.ShardIndex, ref.ShardCount)
		}
		if h.Threshold != ref.Threshold {
			return nil, nil, nil, fmt.Errorf("merge: shard %d selected threshold %v, shard %d selected %v — pairwise stages disagree",
				h.ShardIndex, h.Threshold, ref.ShardIndex, ref.Threshold)
		}
		present[h.ShardIndex] = true
		for node, ps := range nodes[si] {
			if prev, ok := merged[node]; ok {
				if !equalInts(prev, ps) {
					return nil, nil, nil, fmt.Errorf("merge: duplicate journals disagree on node %d's parents (%v vs %v)", node, prev, ps)
				}
				continue
			}
			merged[node] = ps
		}
	}
	rep := &MergeReport{N: ref.N, ShardCount: ref.ShardCount, MergedNodes: len(merged)}
	for i := 0; i < ref.ShardCount; i++ {
		if present[i] {
			rep.PresentShards = append(rep.PresentShards, i)
		} else {
			rep.MissingShards = append(rep.MissingShards, i)
		}
	}
	parents := make([][]int, ref.N)
	for i := 0; i < ref.N; i++ {
		if ps, ok := merged[i]; ok {
			parents[i] = ps
		} else {
			rep.MissingNodes = append(rep.MissingNodes, i)
		}
	}
	rep.Complete = len(rep.MissingNodes) == 0 && len(rep.MissingShards) == 0
	return parents, ref, rep, nil
}

// equalInts reports whether two int slices hold the same sequence.
func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

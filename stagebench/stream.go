package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"strconv"
	"sync"
	"time"

	"tends/internal/core"
	"tends/internal/diffusion"
	"tends/internal/experiments"
	"tends/internal/graph"
	"tends/internal/obs"
	"tends/internal/serve"
)

// The stream-ingest workload: rows of the scale generator at n=256, β=4096,
// posted by one writer in 4 phases of 1024 rows, 4 rows per batch, while
// one reader polls the query surface. Each phase ends when the served
// topology covers every acked row, so every run sees the same number of
// recompute cycles.
const (
	streamN         = 256
	streamBeta      = 4096
	streamPhases    = 4
	streamBatchRows = 4
	streamK         = 10
	// readerPause is the reader's pause after each query, and one query in
	// four is /topology, the rest /parents: tendsd loadtest's reader loop.
	readerPause = time.Millisecond
	// quiesceTimeout bounds a phase's wait for the served topology to cover
	// every acked row, as in tendsd loadtest.
	quiesceTimeout = 60 * time.Second
	// streamMinPasses is the fewest measured passes of an untraced run:
	// ack latencies and recompute times vary more from pass to pass here
	// than the batch workloads' times do, so the median takes three.
	streamMinPasses = 3
)

// buildDir is where the service's data directories go: inside the
// checkout, next to the benchmark's build output.
const buildDir = ".bench_build"

// streamInputs are the workload's rows, the truth they were simulated on,
// and the pre-encoded ingest request bodies.
type streamInputs struct {
	cell   *cell
	bodies [][]byte
}

// encodeStream relabels base by seed and encodes its rows as ingest bodies.
func encodeStream(base *cell, seed int64) (*streamInputs, error) {
	c := relabel(base, seed)
	in := &streamInputs{cell: c}
	for lo := 0; lo < c.sm.Beta(); lo += streamBatchRows {
		rows := make([][]int32, 0, streamBatchRows)
		for p := lo; p < lo+streamBatchRows; p++ {
			row := []int32{}
			for v := 0; v < c.sm.N(); v++ {
				if c.sm.Get(p, v) {
					row = append(row, int32(v))
				}
			}
			rows = append(rows, row)
		}
		body, err := json.Marshal(map[string]any{"id": strconv.Itoa(len(in.bodies) + 1), "rows": rows})
		if err != nil {
			return nil, err
		}
		in.bodies = append(in.bodies, body)
	}
	return in, nil
}

// service is one in-process tendsd: a serve.Server with default Config
// apart from N, Dir and the recorder, served on loopback.
type service struct {
	srv  *serve.Server
	hs   *http.Server
	done chan error
	dir  string
	base string
}

func startService(rec *obs.Recorder) (*service, error) {
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(buildDir, "stream-*")
	if err != nil {
		return nil, err
	}
	srv, _, err := serve.New(serve.Config{N: streamN, Dir: dir, Recorder: rec})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	srv.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Kill()
		os.RemoveAll(dir)
		return nil, err
	}
	s := &service{srv: srv, hs: &http.Server{Handler: srv.Handler()}, done: make(chan error, 1), dir: dir, base: "http://" + ln.Addr().String()}
	go func() { s.done <- s.hs.Serve(ln) }()
	return s, nil
}

// stop closes the listener and connections, drains the server, waits for
// the serving goroutine and removes the data directory.
func (s *service) stop() error {
	err := s.hs.Close()
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if derr := s.srv.Drain(context.Background()); err == nil {
		err = derr
	}
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}

// streamPass is one pass's measurements. The timed part is the phases:
// ingest and refresh.
type streamPass struct {
	ackMS     [streamPhases][]float64
	refreshS  [streamPhases]float64
	ingestS   [streamPhases]float64
	ackedRows int
	topoMS    []float64
	parentsMS []float64
	cpu       float64
	rss       float64
	quality   stageQuality
	// topoText is the served topology in the graph text form.
	topoText []byte
}

func (p *streamPass) refresh() float64 {
	var t float64
	for _, r := range p.refreshS {
		t += r
	}
	return t
}

func (p *streamPass) ingest() float64 {
	var t float64
	for _, s := range p.ingestS {
		t += s
	}
	return t
}

func (p *streamPass) phases() float64 { return p.ingest() + p.refresh() }

func runStreamIngest(ctx context.Context, a args) (*outcome, error) {
	out := &outcome{metrics: make(map[string]float64)}
	var in *streamInputs
	var base *cell
	var svc *service
	var setupLed *ledger
	setupS, err := repeatSetup(func() (time.Duration, error) {
		if svc != nil {
			if err := svc.stop(); err != nil {
				return 0, err
			}
			svc = nil
		}
		setupLed = newLedger(a.trace)
		start := time.Now()
		var err error
		if base, err = scaleCell(ctx, setupLed, streamN, streamBeta); err != nil {
			return 0, err
		}
		svc, err = startService(nil)
		return time.Since(start), err
	})
	if err == nil {
		in, err = encodeStream(base, a.seed)
	}
	if err != nil {
		if svc != nil {
			svc.stop()
		}
		return nil, err
	}
	checkGenerator(ctx, base, out)

	var passes []*streamPass
	start := time.Now()
	for {
		var ref *streamPass
		if len(passes) > 0 {
			ref = passes[0]
		}
		p, err := runStreamPass(ctx, in, svc, newLedger(false), ref, out)
		if serr := svc.stop(); err == nil {
			err = serr
		}
		if err != nil {
			return nil, err
		}
		passes = append(passes, p)
		if !a.morePasses(len(passes), streamMinPasses, start) {
			break
		}
		if svc, err = startService(nil); err != nil {
			return nil, err
		}
	}
	m := out.metrics
	if !a.trace {
		m["setup_s"] = setupS
		m["infer_s"] = median(pick(passes, (*streamPass).refresh))
		// pipeline_s is the time users wait on ingest: the phases times the
		// median phase's first POST → last ack, over every phase of every
		// pass, so that one phase's slow fsyncs move it little.
		var phaseIngest []float64
		for _, p := range passes {
			phaseIngest = append(phaseIngest, p.ingestS[:]...)
		}
		m["pipeline_s"] = streamPhases * median(phaseIngest)
		m["cpu_s"] = median(pick(passes, func(p *streamPass) float64 { return p.cpu }))
		m["peak_rss_mb"] = median(pick(passes, func(p *streamPass) float64 { return p.rss }))
		m["f_score"] = passes[0].quality.f
		m["spread_ratio"] = passes[0].quality.spreadRatio
		return out, nil
	}

	led := newLedger(true)
	svc, err = startService(led.rec)
	if err != nil {
		return nil, err
	}
	gc0 := readGC()
	p, err := runStreamPass(ctx, in, svc, led, nil, out)
	gc1 := readGC()
	// The counters are read before the drain's final snapshot adds to them.
	putServeLayers(m, led, p)
	if serr := svc.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}
	putRuntime(m, gc0, gc1)
	m["trace.overhead_s"] = p.phases() - passes[0].phases()
	putSetupLayers(m, setupLed)
	putCoreLayers(m, led, p.quality)
	putDownstreamLayers(m, led)
	return out, nil
}

// checkGenerator confirms that the benchmark's copy of the scale generator
// still yields the instance experiments.BuildScaleWorkload yields.
func checkGenerator(ctx context.Context, c *cell, out *outcome) {
	out.attempted++
	truth, sm, err := experiments.BuildScaleWorkload(ctx, experiments.ScaleConfig{N: streamN, Beta: streamBeta, Seed: scaleBaseSeed})
	if err != nil {
		out.fail("BuildScaleWorkload: %v", err)
		return
	}
	if !truth.Equal(c.truth) || !bytes.Equal(statusBytes(sm), statusBytes(c.sm)) {
		out.fail("the benchmark's scale generator no longer matches experiments.BuildScaleWorkload")
	}
}

func statusBytes(sm *diffusion.StatusMatrix) []byte {
	var b bytes.Buffer
	if err := sm.WriteStatus(&b); err != nil {
		return nil
	}
	return b.Bytes()
}

// runStreamPass streams every batch through svc, timing ingest and refresh
// per phase. The checks run after the reader has stopped. Without ref the
// pass runs the full checks, which include probest and RIS on the served
// topology; with ref it checks that the served topology repeats ref's.
func runStreamPass(ctx context.Context, in *streamInputs, svc *service, led *ledger, ref *streamPass, out *outcome) (*streamPass, error) {
	client := &http.Client{Timeout: 30 * time.Second}
	defer client.CloseIdleConnections()
	p := &streamPass{}
	if err := settle(); err != nil {
		return nil, err
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var readerFailed int
	var readerAttempted int
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(in.cell.seed))
		for {
			select {
			case <-stop:
				return
			default:
			}
			url, lat := fmt.Sprintf("%s/parents?node=%d", svc.base, rng.Intn(streamN)), &p.parentsMS
			if rng.Intn(4) == 0 {
				url, lat = svc.base+"/topology", &p.topoMS
			}
			readerAttempted++
			t0 := time.Now()
			if _, err := get(client, url); err != nil {
				readerFailed++
			} else {
				*lat = append(*lat, float64(time.Since(t0).Nanoseconds())/1e6)
			}
			time.Sleep(readerPause)
		}
	}()

	cpu0 := cpuSeconds()
	perPhase := len(in.bodies) / streamPhases
	for ph := 0; ph < streamPhases; ph++ {
		phaseStart := time.Now()
		for _, body := range in.bodies[ph*perPhase : (ph+1)*perPhase] {
			out.attempted++
			t0 := time.Now()
			if err := post(client, svc.base+"/ingest", body); err != nil {
				out.fail("ingest: %v", err)
				continue
			}
			p.ackMS[ph] = append(p.ackMS[ph], float64(time.Since(t0).Nanoseconds())/1e6)
			p.ackedRows += streamBatchRows
		}
		lastAck := time.Now()
		p.ingestS[ph] = lastAck.Sub(phaseStart).Seconds()
		qctx, cancel := context.WithTimeout(ctx, quiesceTimeout)
		err := svc.srv.Quiesce(qctx)
		cancel()
		if err != nil {
			close(stop)
			wg.Wait()
			return nil, fmt.Errorf("phase %d: topology does not cover the %d acked rows: %w", ph+1, p.ackedRows, err)
		}
		p.refreshS[ph] = time.Since(lastAck).Seconds()
	}
	p.cpu = cpuSeconds() - cpu0
	rss, err := peakRSSMiB()
	close(stop)
	wg.Wait()
	if err != nil {
		return nil, err
	}
	p.rss = rss
	out.attempted += readerAttempted
	for i := 0; i < readerFailed; i++ {
		out.fail("query failed")
	}

	view, err := fetchTopology(client, svc.base)
	if err != nil {
		return nil, err
	}
	served := graph.New(streamN)
	for v, ps := range view.Parents {
		for _, u := range ps {
			served.AddEdge(u, v)
		}
	}
	var want []byte
	if ref != nil {
		want = ref.topoText
	}
	dumped, err := checkServed(ctx, client, svc.base, in.cell.sm, served, want, p, out)
	if err != nil {
		return nil, err
	}
	if ref != nil {
		p.quality = ref.quality
		return p, nil
	}
	est, sel, _, err := downstream(led.ctx(ctx), led, in.cell.sm, served, streamK, in.cell.seed)
	if err != nil {
		return nil, err
	}
	checkProbest(est, served, out)
	checkSeeds(sel, streamK, streamN, out)
	src, err := pairSource(ctx, dumped, true)
	if err != nil {
		return nil, err
	}
	res := &core.Result{Graph: served, Threshold: view.Threshold, Parents: view.Parents}
	p.quality = measureQuality(in.cell, res, src, out)
	p.quality.spreadRatio, err = spreadRatio(ctx, led, in.cell, sel.Seeds, streamK, out)
	return p, err
}

// checkServed requires that the service lost no acked row and that its
// topology is byte-identical to a batch core.Infer over its /rows dump, or,
// given want, to want: the text an earlier pass proved equal to that batch
// run over the same rows. It stores the topology text in p and returns the
// dump.
func checkServed(ctx context.Context, client *http.Client, base string, sent *diffusion.StatusMatrix, served *graph.Directed, want []byte, p *streamPass, out *outcome) (*diffusion.StatusMatrix, error) {
	out.attempted++
	raw, err := get(client, base+"/rows")
	if err != nil {
		return nil, err
	}
	dumped, err := diffusion.ReadStatus(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("parse /rows: %w", err)
	}
	if !bytes.Equal(statusBytes(dumped), statusBytes(sent)) {
		out.fail("/rows holds %d rows that differ from the %d acked", dumped.Beta(), sent.Beta())
	}
	if p.topoText, err = get(client, base+"/topology?format=text"); err != nil {
		return nil, err
	}
	if want != nil {
		if !bytes.Equal(p.topoText, want) {
			out.fail("served topology differs from the first pass's")
		}
		return dumped, nil
	}
	batch, err := core.InferContext(ctx, dumped, core.Options{Sparse: true})
	if err != nil {
		return nil, fmt.Errorf("batch reference infer: %w", err)
	}
	var text bytes.Buffer
	if err := graph.Write(&text, batch.Graph); err != nil {
		return nil, err
	}
	if !bytes.Equal(p.topoText, text.Bytes()) || !served.Equal(batch.Graph) {
		out.fail("served topology differs from the batch core.Infer over /rows")
	}
	return dumped, nil
}

type topologyView struct {
	Threshold float64 `json:"threshold"`
	Parents   [][]int `json:"parents"`
}

func fetchTopology(client *http.Client, base string) (*topologyView, error) {
	raw, err := get(client, base+"/topology")
	if err != nil {
		return nil, err
	}
	var v topologyView
	if err := json.Unmarshal(raw, &v); err != nil {
		return nil, fmt.Errorf("parse /topology: %w", err)
	}
	return &v, nil
}

func get(client *http.Client, url string) ([]byte, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %s", url, resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, nil
}

func post(client *http.Client, url string, body []byte) error {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	return nil
}

// putServeLayers copies the service's own counters and the client-side
// latencies of the traced pass.
func putServeLayers(m map[string]float64, led *ledger, p *streamPass) {
	var acks []float64
	for ph := range p.ackMS {
		acks = append(acks, p.ackMS[ph]...)
		m[fmt.Sprintf("serve.ack_ms.%d", ph+1)] = median(p.ackMS[ph])
		m[fmt.Sprintf("serve.refresh_phase_s.%d", ph+1)] = p.refreshS[ph]
	}
	m["serve.ingest_rows_per_s"] = float64(p.ackedRows) / p.ingest()
	m["serve.ingest_p50_ms"] = quantile(acks, 0.50)
	m["serve.ingest_p99_ms"] = quantile(acks, 0.99)
	m["serve.query_p50_ms"] = median(append(append([]float64(nil), p.topoMS...), p.parentsMS...))
	m["serve.query.topology_ms"] = median(p.topoMS)
	m["serve.query.parents_ms"] = median(p.parentsMS)
	m["serve.wal.appends"] = led.obsCount("serve/wal/appends")
	m["serve.wal.fsyncs"] = led.obsCount("serve/wal/fsyncs")
	m["serve.ingest.rows"] = led.obsCount("serve/ingest/rows")
	m["serve.recompute.cycles"] = led.obsCount("serve/recompute/cycles")
	m["serve.recompute.nodes"] = led.obsCount("serve/recompute/nodes")
}

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"csbsim/internal/asm"
	"csbsim/internal/bench"
	"csbsim/internal/cluster"
	"csbsim/internal/cluster/ctrace"
	"csbsim/internal/cluster/loadgen"
	"csbsim/internal/fault"
	"csbsim/internal/isa"
	"csbsim/internal/mem"
	"csbsim/internal/obs/counters"
	"csbsim/internal/obs/journey"
	"csbsim/internal/obs/rec"
	"csbsim/internal/sim"
)

// workload is one benchmark workload. A rep runs setup, then the timed
// body of the instance it returns.
type workload struct {
	name  string
	ops   int // ops per rep
	setup func(e *env, sp *spans) (instance, error)
	// extras runs the traced run's comparison runs after its reps and
	// adds their per-layer metrics to v; nil when the workload has none.
	extras func(e *env, sp *spans, v map[string]float64) outcome
}

// instance is one set-up copy of a workload.
type instance interface {
	body(sp *spans) outcome
}

var workloads = []*workload{
	{name: "stream", ops: len(streamHalves), setup: setupStream},
	{name: "figures", ops: len(figureIDs), setup: setupFigures},
	{name: "serve", ops: 1, setup: setupServeRep, extras: serveExtras},
}

func workloadByName(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// env is what every rep of one run shares.
type env struct {
	seed uint64
	refs *references
	slo  string // specs/serving.slo
	// first maps an output key to the digest of its first occurrence in
	// this run: every later rep must reproduce it exactly.
	first map[string]string
}

func newEnv(root string, seed uint64, refs *references) (*env, error) {
	slo, err := os.ReadFile(filepath.Join(root, "specs", "serving.slo"))
	if err != nil {
		return nil, err
	}
	return &env{seed: seed, refs: refs, slo: string(slo), first: map[string]string{}}, nil
}

// outcome is what a rep's body did and produced.
type outcome struct {
	attempted, failed int
	nodeCycles        uint64
	errs              []error
	notes             []string // findings that are not failures
	counts            layerCounts
	outputs           map[string][]byte // output key -> bytes, for reference updates
}

func (o *outcome) fail(what string, err error) {
	o.failed++
	o.errs = append(o.errs, fmt.Errorf("%s: %w", what, err))
}

func (o *outcome) merge(p outcome) {
	o.attempted += p.attempted
	o.failed += p.failed
	o.errs = append(o.errs, p.errs...)
	o.notes = append(o.notes, p.notes...)
}

// check compares one produced output with its reference (when want is
// non-nil) and with the first rep's output under the same key.
func (e *env) check(o *outcome, key string, got, want []byte) error {
	if o.outputs == nil {
		o.outputs = map[string][]byte{}
	}
	o.outputs[key] = got
	if want != nil {
		if err := sameBytes(key, got, want); err != nil {
			return err
		}
	}
	sum := sha256Hex(got)
	if prev, ok := e.first[key]; !ok {
		e.first[key] = sum
	} else if prev != sum {
		return fmt.Errorf("%s differs from the first rep's (sha256 %s, first %s)", key, sum, prev)
	}
	return nil
}

// assemble assembles and loads a guest, warming its lines when warm is set.
func assemble(m *sim.Machine, sp *spans, op int, name, src string, warm bool) (words uint64, err error) {
	end := sp.start("asm.Assemble", op)
	p, err := asm.Assemble(name, src)
	end()
	if err != nil {
		return 0, err
	}
	end = sp.start("Machine.Load", op)
	err = m.Load(p)
	end()
	if err != nil {
		return 0, err
	}
	if warm {
		end = sp.start("WarmProgram", op)
		m.WarmProgram(p)
		end()
	}
	return uint64(p.Size() / isa.InstBytes), nil
}

// ---- stream ----

const (
	// streamBudget is each half's simulated-cycle budget.
	streamBudget = 1_000_000
	// streamBytes sizes the transfer so the store loop never finishes
	// inside the budget: pages are only allocated as they are touched.
	streamBytes = 1 << 26
	// streamBatch is the Tick count per traced span.
	streamBatch = 1 << 16
)

var streamHalves = []struct {
	name string
	csb  bool
}{{"uncached", false}, {"csb", true}}

type streamMachine struct {
	name string
	m    *sim.Machine
	op   int
}

type streamInst struct {
	e      *env
	halves []streamMachine
	words  uint64
}

func setupStream(e *env, sp *spans) (instance, error) {
	in := &streamInst{e: e}
	for _, h := range streamHalves {
		op := sp.op()
		p := bench.DefaultParams()
		kind := mem.KindUncached
		if h.csb {
			p.Scheme = bench.SchemeCSB
			kind = mem.KindCombining
		}
		end := sp.start("MachineParams.Build", op)
		m, err := p.Build()
		end()
		if err != nil {
			return nil, err
		}
		m.MapRange(bench.IOBase, streamBytes, kind)
		src := bench.StoreBandwidthProgram(streamBytes, p.LineSize, h.csb)
		words, err := assemble(m, sp, op, h.name+".s", src, true)
		if err != nil {
			return nil, err
		}
		in.words += words
		in.halves = append(in.halves, streamMachine{name: h.name, m: m, op: op})
	}
	return in, nil
}

func (in *streamInst) body(sp *spans) outcome {
	o := outcome{counts: layerCounts{asmWords: in.words}}
	for _, h := range in.halves {
		o.attempted++
		for done := 0; done < streamBudget; done += streamBatch {
			end := sp.start("Machine.Tick", h.op)
			for i := 0; i < streamBatch && done+i < streamBudget; i++ {
				h.m.Tick()
			}
			end()
		}
		end := sp.start("Machine.Stats", h.op)
		st := h.m.Stats()
		end()
		o.nodeCycles += st.Cycles
		o.counts.machines = append(o.counts.machines, st)
		if h.m.CPU.Halted() {
			o.fail(h.name, fmt.Errorf("halted inside the %d-cycle budget", streamBudget))
			continue
		}
		if err := h.m.CPU.Err(); err != nil {
			o.fail(h.name, err)
			continue
		}
		got, err := json.Marshal(st)
		if err == nil {
			err = in.e.check(&o, h.name, got, in.e.refs.stream[h.name])
		}
		if err != nil {
			o.fail(h.name, err)
		}
	}
	return o
}

// ---- figures ----

var figureIDs = []string{
	"3a", "3b", "3c", "3d", "3e", "3f", "3g", "3h", "3i",
	"4a", "4b", "4c", "4d", "4e",
	"5a", "5b",
	"X1", "X2", "X2L", "X4", "X6", "X8",
}

// figureWarmup is the figure regenerated, and checked, as set-up.
const figureWarmup = "5a"

var figureSpanNames = func() map[string]string {
	m := map[string]string{}
	for _, id := range figureIDs {
		m[id] = "bench.ByID/" + id
	}
	return m
}()

type figuresInst struct{ e *env }

func setupFigures(e *env, sp *spans) (instance, error) {
	end := sp.start("bench.ByID/warmup", 0)
	r, err := bench.ByID(figureWarmup)
	end()
	if err != nil {
		return nil, err
	}
	if want := e.refs.figures[figureWarmup]; want != nil {
		if err := sameBytes("warm-up figure "+figureWarmup, []byte(bench.Format(r)), want); err != nil {
			return nil, err
		}
	}
	return figuresInst{e}, nil
}

func (in figuresInst) body(sp *spans) outcome {
	var o outcome
	for _, id := range figureIDs {
		o.attempted++
		end := sp.start(figureSpanNames[id], sp.op())
		r, err := bench.ByID(id)
		end()
		if err == nil {
			err = in.e.check(&o, id, []byte(bench.Format(r)), in.e.refs.figures[id])
		}
		if err != nil {
			o.fail("figure "+id, err)
			continue
		}
		o.nodeCycles += in.e.refs.figureCycles[id]
	}
	return o
}

// ---- serve ----

// The `make flight-recorder` scenario with ctrace and a 10x horizon: 150
// recording windows, about 1.3 s of host time per run on two cores.
const (
	serveNodes     = 4
	serveMeanGap   = 3030 // cycles between requests: 0.33 per kcycle, truncated as by csbcluster -rate 0.33
	serveHorizon   = 3_000_000
	serveReqWords  = 8
	serveTimeout   = 6000
	serveRetries   = 4
	serveRecEvery  = 20_000
	serveWireFault = "wiredrop=8,outage=2,outagemax=300"
	serveChunk     = serveRecEvery // RunFor chunk length of the chunked run
)

type serveInst struct {
	e        *env
	c        *cluster.Cluster
	gens     []*loadgen.Generator
	rec      *bytes.Buffer // the recording; nil with observability detached
	op       int
	words    uint64
	parallel bool
	chunked  bool
}

func setupServeRep(e *env, sp *spans) (instance, error) {
	return setupServe(e, sp, true)
}

// setupServe builds the serving cluster the way `csbcluster -serve` does,
// with observability attached or detached.
func setupServe(e *env, sp *spans, observe bool) (*serveInst, error) {
	in := &serveInst{e: e, op: sp.op(), parallel: true}
	cfg := cluster.DefaultConfig()
	cfg.Nodes = serveNodes
	cfg.Topology = cluster.TopoStar
	end := sp.start("cluster.New", in.op)
	c, err := cluster.New(cfg)
	end()
	if err != nil {
		return nil, err
	}
	in.c = c
	if observe {
		end := sp.start("AttachObservability", in.op)
		err := in.attachObs()
		end()
		if err != nil {
			return nil, err
		}
	}
	fcfg, err := fault.ParseSpec(serveWireFault + ",seed=" + strconv.FormatUint(e.seed, 10))
	if err != nil {
		return nil, err
	}
	if _, err := c.AttachWireFaults(fcfg); err != nil {
		return nil, err
	}
	src, err := loadgen.ServerProgram(bench.SendCSB, serveReqWords)
	if err != nil {
		return nil, err
	}
	loadgen.ServerMapIO(c.Node(0), bench.SendCSB)
	if in.words, err = assemble(c.Node(0).M, sp, in.op, "server.s", src, true); err != nil {
		return nil, err
	}
	for i := 1; i < serveNodes; i++ {
		words, err := assemble(c.Node(i).M, sp, in.op, "client.s", "halt\n", false)
		if err != nil {
			return nil, err
		}
		in.words += words
		g := loadgen.New(loadgen.Config{
			MeanGap:    serveMeanGap,
			Dist:       loadgen.DistUniform,
			Seed:       e.seed + uint64(i),
			Words:      serveReqWords,
			Servers:    []int{0},
			Timeout:    serveTimeout,
			MaxRetries: serveRetries,
		})
		if err := g.Attach(c, i); err != nil {
			return nil, err
		}
		in.gens = append(in.gens, g)
	}
	return in, nil
}

// attachObs attaches ctrace and the flight recorder with the SLO spec.
func (in *serveInst) attachObs() error {
	if _, err := in.c.AttachTrace(journey.DefaultConfig(), ctrace.DefaultConfig()); err != nil {
		return err
	}
	r, err := rec.New(rec.Config{Every: serveRecEvery})
	if err != nil {
		return err
	}
	slo, err := rec.ParseSLO(in.e.slo)
	if err != nil {
		return err
	}
	if err := r.SetSLO(slo); err != nil {
		return err
	}
	in.rec = &bytes.Buffer{}
	if err := r.SetWriter(in.rec); err != nil {
		return err
	}
	return in.c.AttachRecorder(r)
}

func (in *serveInst) run(sp *spans) error {
	if !in.chunked {
		defer sp.start("RunFor", in.op)()
		return in.c.RunFor(serveHorizon, in.parallel)
	}
	for done := uint64(0); done < serveHorizon; done += serveChunk {
		end := sp.start("RunFor/chunk", in.op)
		err := in.c.RunFor(min(serveChunk, serveHorizon-done), in.parallel)
		end()
		if err != nil {
			return err
		}
	}
	return nil
}

// serveLoad is the loadgen accounting, which observability must not
// change.
type serveLoad struct {
	Cycles  uint64          `json:"cycles"`
	Clients []loadgen.Stats `json:"clients"`
}

// serveReport is the serving run's checked output.
type serveReport struct {
	serveLoad
	Latency    counters.Summary `json:"latency"`
	WireFaults fault.Stats      `json:"wire_faults"`
	Wire       [3]uint64        `json:"wire_started_completed_dropped"`
	Nodes      []sim.Stats      `json:"nodes"`
}

func (in *serveInst) body(sp *spans) outcome {
	o := outcome{attempted: 1}
	if err := in.run(sp); err != nil {
		o.fail("serve", err)
		return o
	}
	end := sp.start("Stats", in.op)
	rep, err := in.collect(&o)
	end()
	if err == nil {
		err = in.check(&o, rep)
	}
	if err != nil {
		o.fail("serve", err)
	}
	return o
}

// collect reads the run's statistics through the public accessors.
func (in *serveInst) collect(o *outcome) (serveReport, error) {
	c := in.c
	rep := serveReport{serveLoad: serveLoad{Cycles: c.Cycle()}}
	lc := &o.counts
	lc.asmWords = in.words
	merged := counters.NewHistogram("latency")
	for _, g := range in.gens {
		st := g.Stats()
		rep.Clients = append(rep.Clients, st)
		lc.load.Issued += st.Issued
		lc.load.Goodput += st.Goodput
		lc.load.Retries += st.Retries
		lc.load.Timeouts += st.Timeouts
		merged.Merge(g.Latency())
	}
	rep.Latency = merged.Summary()
	for _, n := range c.Nodes() {
		st := n.M.Stats()
		rep.Nodes = append(rep.Nodes, st)
		lc.machines = append(lc.machines, st)
		o.nodeCycles += n.M.Cycle()
		lc.txPackets += uint64(len(n.NIC.Packets()))
		lc.rxPackets += n.NIC.RxPops()
	}
	rep.WireFaults = c.WireFaults().Stats()
	snap := c.Registry().Snapshot().Counters
	for _, k := range []string{"route_drops", "link_drops", "fault_drops", "outage_drops", "degraded_drops"} {
		lc.drops += snap["cluster/"+k]
	}
	if tr := c.Trace(); tr != nil {
		rep.Wire = [3]uint64{tr.Started(), tr.Completed(), tr.Dropped()}
		lc.wirePackets, lc.spansDone = tr.Started(), tr.Completed()
	}
	if r := c.Recorder(); r != nil {
		if err := r.Err(); err != nil {
			return rep, err
		}
		lc.recWindows, lc.recBytes = r.Windows(), uint64(in.rec.Len())
	}
	return rep, nil
}

// check applies serve's output checks: for any seed, exact request
// accounting, no lost request, no node down, and every output identical
// to the first rep's; for serveRefSeed also no SLO breach at the end and
// the report and recording byte-identical to the references.
func (in *serveInst) check(o *outcome, rep serveReport) error {
	var issued uint64
	for i, st := range rep.Clients {
		if st.Completed+st.Lost > st.Issued {
			return fmt.Errorf("client %d: completed %d + lost %d > issued %d", i+1, st.Completed, st.Lost, st.Issued)
		}
		if st.Lost != 0 {
			return fmt.Errorf("client %d lost %d requests", i+1, st.Lost)
		}
		issued += st.Issued
	}
	if issued == 0 {
		return fmt.Errorf("no request issued")
	}
	if down := in.c.DownNodes(); len(down) > 0 {
		return fmt.Errorf("nodes down: %v", down)
	}
	load, err := json.Marshal(rep.serveLoad)
	if err != nil {
		return err
	}
	if err := in.e.check(o, "serve.loadgen", load, nil); err != nil {
		return err
	}
	r := in.c.Recorder()
	if r == nil {
		return nil
	}
	// The ratio and p99 rules judge ~7 requests per client per window, so
	// a link outage in the last window breaches them for about 2% of
	// seeds: a property of the scenario, not a fault of the simulator.
	// They gate the reference seed, whose outputs are pinned; other seeds
	// report them.
	for _, a := range r.ActiveAlerts() {
		err := fmt.Errorf("SLO breached at end: %s rule %q value %g", a.Series, a.Rule, a.Value)
		if in.e.seed == serveRefSeed {
			return err
		}
		o.notes = append(o.notes, err.Error())
	}
	full, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		return err
	}
	var wantRep, wantSHA []byte
	if in.e.seed == serveRefSeed && in.e.refs.serveRecSHA != "" {
		wantRep, wantSHA = in.e.refs.serveReport, []byte(in.e.refs.serveRecSHA)
	}
	if err := in.e.check(o, "serve.report", append(full, '\n'), wantRep); err != nil {
		return err
	}
	return in.e.check(o, "serve.recording", []byte(sha256Hex(in.rec.Bytes())), wantSHA)
}

// serveRounds is the number of (attached, detached, sequential) rounds
// serve's traced run makes; each ratio is taken within a round, so slow
// drift of the host's speed cancels.
const serveRounds = 3

// serveExtras runs the same input with observability detached (in
// recording-window chunks) and on the sequential windowed engine, next to
// the attached parallel run, checks all three against the reps, and
// reports the median ratios and the chunk times.
func serveExtras(e *env, sp *spans, v map[string]float64) outcome {
	var o outcome
	timed := func(observe, parallel, chunked bool, s *spans) float64 {
		in, err := setupServe(e, s, observe)
		if err != nil {
			o.attempted++
			o.fail("serve comparison run", err)
			return 0
		}
		in.parallel, in.chunked = parallel, chunked
		t := nowSeconds()
		p := in.body(s)
		wall := nowSeconds() - t
		o.merge(p)
		return wall
	}
	var overhead, speedup, chunks []float64
	for i := 0; i < serveRounds; i++ {
		att := timed(true, true, false, nil)
		mark := len(sp.list)
		det := timed(false, true, true, sp)
		seq := timed(true, false, false, nil)
		for _, s := range sp.list[mark:] {
			if s.Name == "RunFor/chunk" {
				chunks = append(chunks, float64(s.End-s.Start)/1e6)
			}
		}
		if att > 0 && det > 0 && seq > 0 {
			overhead = append(overhead, att/det-1)
			speedup = append(speedup, seq/att)
		}
	}
	v["obs.overhead_frac"] = median(overhead)
	v["cluster.par_speedup"] = median(speedup)
	v["cluster.chunk_ms.p50"] = quantile(chunks, 0.5)
	v["cluster.chunk_ms.p99"] = quantile(chunks, 0.99)
	return o
}

package cluster

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"csbsim/internal/cluster/ctrace"
	"csbsim/internal/obs/journey"
	"csbsim/internal/obs/telemetry"
	"csbsim/internal/sim"
)

// ringGuest builds a guest that sends `sends` one-word packets (values
// v, v+1, …, each from its own packet-buffer slot, on the default route)
// and then drains `recvs` inbound words, storing their sum at 0x20000.
func ringGuest(v, sends, recvs int) string {
	var b strings.Builder
	b.WriteString("\t.equ NICREG, 0x40000000\n\t.equ PKTBUF, 0x40001000\n")
	b.WriteString("\tset NICREG, %o0\n\tset PKTBUF, %o1\n")
	b.WriteString("\tset 8, %g4\n\tsll %g4, 48, %g4\n")
	fmt.Fprintf(&b, "\tset %d, %%g6\n", v)
	if sends > 0 {
		fmt.Fprintf(&b, "\tset %d, %%g7\n", sends)
		b.WriteString("\tclr %o3\n")
		b.WriteString("send:\tadd %o1, %o3, %o4\n")
		b.WriteString("\tstx %g6, [%o4]\n\tmembar\n")
		b.WriteString("\tor %g4, %o3, %g3\n")
		b.WriteString("\tstx %g3, [%o0]\n")
		b.WriteString("\tadd %o3, 8, %o3\n\tinc %g6\n")
		b.WriteString("\tsubcc %g7, 1, %g7\n\tbnz send\n")
	}
	if recvs > 0 {
		fmt.Fprintf(&b, "\tset %d, %%g7\n", recvs)
		b.WriteString("\tclr %g5\n")
		fmt.Fprintf(&b, "wait:\tldx [%%o0+0x28], %%g1\n\tcmp %%g1, %d\n\tbl wait\n", recvs)
		b.WriteString("drain:\tldx [%o0+0x20], %g2\n\tadd %g5, %g2, %g5\n")
		b.WriteString("\tsubcc %g7, 1, %g7\n\tbnz drain\n")
		b.WriteString("\tset 0x20000, %o2\n\tstx %g5, [%o2]\n\tmembar\n")
	}
	b.WriteString("\thalt\n")
	return b.String()
}

// sumOf is the value ringGuest's receiver stores: the sum of `count`
// consecutive values starting at base.
func sumOf(base, count int) uint64 {
	s := 0
	for i := 0; i < count; i++ {
		s += base + i
	}
	return uint64(s)
}

// tokenGuest builds one station of a token ring: each lap, node 0 sends
// the token and waits for it to come back, and every other node waits
// for it and forwards its value plus one. Every delivery sits on the
// critical path, and the nodes halt at different cycles, so HaltCycle
// has to take the latest. The sum of the words received lands at
// 0x20000.
func tokenGuest(first bool, laps int) string {
	var b strings.Builder
	b.WriteString("\t.equ NICREG, 0x40000000\n\t.equ PKTBUF, 0x40001000\n")
	b.WriteString("\tset NICREG, %o0\n\tset PKTBUF, %o1\n")
	b.WriteString("\tset 8, %g4\n\tsll %g4, 48, %g4\n")
	fmt.Fprintf(&b, "\tset %d, %%g7\n\tset 1, %%g6\n\tclr %%g5\n", laps)
	send := "\tstx %g6, [%o1]\n\tmembar\n\tstx %g4, [%o0]\n\tmembar\n"
	recv := "wait:\tldx [%o0+0x28], %g1\n\tcmp %g1, 1\n\tbl wait\n" +
		"\tldx [%o0+0x20], %g2\n\tadd %g5, %g2, %g5\n\tadd %g2, 1, %g6\n"
	b.WriteString("lap:\n")
	if first {
		b.WriteString(send + recv)
	} else {
		b.WriteString(recv + send)
	}
	b.WriteString("\tsubcc %g7, 1, %g7\n\tbnz lap\n")
	b.WriteString("\tset 0x20000, %o2\n\tstx %g5, [%o2]\n\tmembar\n\thalt\n")
	return b.String()
}

// ringSnapshot is everything the determinism guard compares byte-wise.
type ringSnapshot struct {
	cycle     uint64
	haltCycle uint64
	hops      []uint64 // per node: cycles from its ring predecessor's first send to its first receive
	dump      []byte   // merged ctrace dump
	stats     []byte   // per-node machine stats, JSON
	reg       []byte   // cluster registry snapshot, JSON
}

// ringFabric is the link shape of the guard workload; token selects the
// token-ring guests instead of the send-then-receive burst.
type ringFabric struct {
	latency, rxDelay, bandwidth uint64
	token                       bool
}

// runRing builds the guard workload — a 4-node traced ring over fabric f
// with per-link bandwidth, queue depth and RX staging all exercised, each
// node sending 3 packets clockwise and receiving 3 (or passing a token
// around 3 laps) — runs it with the given engine, verifies delivery, and
// snapshots every observable output.
func runRing(t *testing.T, f ringFabric, run func(*Cluster) error) ringSnapshot {
	t.Helper()
	const sends, laps = 3, 3
	guest := func(i int) string { return ringGuest(100*(i+1), sends, sends) }
	want := func(i int) uint64 { return sumOf(100*((i+3)%4+1), sends) }
	if f.token {
		guest = func(i int) string { return tokenGuest(i == 0, laps) }
		want = func(i int) uint64 {
			var s uint64
			for lap := 0; lap < laps; lap++ {
				s += uint64((i+3)%4 + 1 + 4*lap) // hop k carries k+1
			}
			return s
		}
	}
	cfg := DefaultConfig()
	cfg.Nodes = 4
	cfg.Topology = TopoRing
	cfg.WireLatency = f.latency
	cfg.Bandwidth = f.bandwidth
	cfg.LinkDepth = 8
	cfg.RxEnqueueDelay = f.rxDelay
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range c.Nodes() {
		n.MapIO(false)
		if _, err := n.M.LoadSource("ring.s", guest(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.AttachTrace(journey.DefaultConfig(), ctrace.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	// Per-node hooks note the first cycle the node's first packet has been
	// pumped (a hook runs before the tick, so it sees the previous cycle's
	// pump) and the first cycle inbound words sit in its RX queue. Their
	// distance is the fabric's delivery delay, exact to the cycle.
	sent, seen := make([]uint64, 4), make([]uint64, 4)
	for i, n := range c.Nodes() {
		nic := n.NIC
		c.SetNodeHook(i, HookFunc(func(cyc uint64) bool {
			if sent[i] == 0 && len(nic.Packets()) > 0 {
				sent[i] = cyc
			}
			if seen[i] == 0 && nic.RxPending() > 0 {
				seen[i] = cyc
			}
			return sent[i] == 0 || seen[i] == 0
		}))
	}
	if err := run(c); err != nil {
		t.Fatal(err)
	}
	snap := snapshotOf(t, c)
	for i, n := range c.Nodes() {
		snap.hops = append(snap.hops, seen[i]-sent[(i+3)%4])
		if got := n.M.RAM.ReadUint(0x20000, 8); got != want(i) {
			t.Errorf("node %s received sum %d, want %d", n.Name(), got, want(i))
		}
	}
	return snap
}

// snapshotOf takes a finished, traced run's cluster-wide outputs: the
// final and halt cycles, the merged ctrace dump, every node's Stats JSON
// and the cluster registry snapshot.
func snapshotOf(t *testing.T, c *Cluster) ringSnapshot {
	t.Helper()
	var snap ringSnapshot
	snap.cycle = c.Cycle()
	snap.haltCycle = c.HaltCycle()
	var dump bytes.Buffer
	if _, err := c.Trace().WriteTo(&dump); err != nil {
		t.Fatal(err)
	}
	snap.dump = dump.Bytes()
	var stats []sim.Stats
	for _, n := range c.Nodes() {
		stats = append(stats, n.M.Stats())
	}
	var err error
	if snap.stats, err = json.Marshal(stats); err != nil {
		t.Fatal(err)
	}
	if snap.reg, err = json.Marshal(c.Registry().Snapshot()); err != nil {
		t.Fatal(err)
	}
	return snap
}

// checkSame fails the test when two snapshots differ in any compared
// output.
func checkSame(t *testing.T, what string, a, b ringSnapshot) {
	t.Helper()
	check := func(part string, x, y []byte) {
		t.Helper()
		if !bytes.Equal(x, y) {
			t.Errorf("%s: %s differ:\n%s\n---- vs ----\n%s", what, part, x, y)
		}
	}
	check("trace dumps", a.dump, b.dump)
	check("machine stats", a.stats, b.stats)
	check("registry snapshots", a.reg, b.reg)
	if a.haltCycle != b.haltCycle {
		t.Errorf("%s: halt cycle %d vs %d", what, a.haltCycle, b.haltCycle)
	}
}

// TestParallelMatchesSequential is the determinism guard (the PR's
// acceptance check): the goroutine-per-node engine must produce
// byte-identical trace dumps, machine stats and counter snapshots to the
// inline sequential reference, and repeated parallel runs must be
// byte-identical to each other.
func TestParallelMatchesSequential(t *testing.T) {
	f := ringFabric{latency: 90, rxDelay: 13, bandwidth: 2}
	seq := runRing(t, f, func(c *Cluster) error { return c.RunSequentialRef(2_000_000) })
	par := runRing(t, f, func(c *Cluster) error { return c.RunParallel(2_000_000) })
	par2 := runRing(t, f, func(c *Cluster) error { return c.RunParallel(2_000_000) })

	if seq.cycle != par.cycle {
		t.Errorf("final cycle: sequential %d, parallel %d", seq.cycle, par.cycle)
	}
	checkSame(t, "seq vs par", seq, par)
	checkSame(t, "par vs par", par, par2)

	var d ctrace.Dump
	if err := json.Unmarshal(seq.dump, &d); err != nil {
		t.Fatal(err)
	}
	if d.Started != 12 || d.Completed != 12 {
		t.Errorf("dump started=%d completed=%d, want 12/12", d.Started, d.Completed)
	}
}

// TestEnginesMatchAcrossFabrics runs both guard workloads (the burst
// ring and the token ring) over a grid of link latencies (zero included:
// a one-cycle window), RX staging delays and link bandwidths. The
// parallel engine must match the sequential reference byte for byte on
// trace dumps, machine stats and registry snapshots; every first
// delivery must take exactly bandwidth + latency + RX delay cycles; and
// HaltCycle must equal the cycle the retired lockstep engine stopped at
// (recorded before its removal; each value held across the grid's RX
// delays and bandwidths).
func TestEnginesMatchAcrossFabrics(t *testing.T) {
	lockstepHalt := map[bool]map[uint64]uint64{
		false: {0: 692, 1: 692, 2: 692, 7: 692, 90: 776},
		true:  {0: 1832, 1: 1832, 2: 1832, 7: 1832, 90: 2840},
	}
	for _, token := range []bool{false, true} {
		for _, lat := range []uint64{0, 1, 2, 7, 90} {
			for _, rx := range []uint64{0, 13} {
				for _, bw := range []uint64{0, 2} {
					f := ringFabric{latency: lat, rxDelay: rx, bandwidth: bw, token: token}
					name := fmt.Sprintf("token=%v/lat=%d/rx=%d/bw=%d", token, lat, rx, bw)
					seq := runRing(t, f, func(c *Cluster) error { return c.RunSequentialRef(2_000_000) })
					par := runRing(t, f, func(c *Cluster) error { return c.RunParallel(2_000_000) })
					checkSame(t, name+" seq vs par", seq, par)
					if want := lockstepHalt[token][lat]; seq.haltCycle != want {
						t.Errorf("%s: HaltCycle %d, lockstep halted at %d", name, seq.haltCycle, want)
					}
					for _, snap := range []ringSnapshot{seq, par} {
						for i, hop := range snap.hops {
							if want := bw + lat + rx; hop != want {
								t.Errorf("%s: node %d first delivery took %d cycles, want %d", name, i, hop, want)
							}
						}
					}
				}
			}
		}
	}
}

// churnRing builds an 8-node ring where nodes send different packet
// counts and so halt at staggered times.
func churnRing(t *testing.T) *Cluster {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Nodes = 8
	cfg.Topology = TopoRing
	cfg.WireLatency = 40
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range c.Nodes() {
		n.MapIO(false)
		src := ringGuest(10*(i+1), churnCount(i), churnCount((i+7)%8))
		if _, err := n.M.LoadSource("churn.s", src); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// churnCount is the number of packets churnRing's node i sends.
func churnCount(i int) int { return i%3 + 1 }

// checkChurnSums checks that every churnRing node received its
// predecessor's packets.
func checkChurnSums(t *testing.T, c *Cluster) {
	t.Helper()
	for i, n := range c.Nodes() {
		from := (i + 7) % 8
		want := sumOf(10*(from+1), churnCount(from))
		if got := n.M.RAM.ReadUint(0x20000, 8); got != want {
			t.Errorf("node %s received sum %d, want %d", n.Name(), got, want)
		}
	}
}

// TestParallelNodeChurn runs the 8-node staggered-halt ring — under
// -race this covers worker goroutines freezing and thawing around
// barriers.
func TestParallelNodeChurn(t *testing.T) {
	c := churnRing(t)
	if err := c.RunParallel(2_000_000); err != nil {
		t.Fatal(err)
	}
	checkChurnSums(t, c)
}

// TestDispatchBothPaths: the parallel engine hands a window to worker
// goroutines only while two or more node CPUs run, and runs every other
// window inline on the coordinator. On the token ring (asymmetric halts)
// and the 8-node staggered-halt ring both kinds of window must occur, a
// node must move from its worker to inline as the CPUs halt, and the
// ctrace dump, Stats JSON and registry snapshot must still match the
// sequential reference byte for byte.
func TestDispatchBothPaths(t *testing.T) {
	token := func(t *testing.T, run func(*Cluster) error) ringSnapshot {
		return runRing(t, ringFabric{latency: 90, rxDelay: 13, bandwidth: 2, token: true}, run)
	}
	churn := func(t *testing.T, run func(*Cluster) error) ringSnapshot {
		c := churnRing(t)
		if _, err := c.AttachTrace(journey.DefaultConfig(), ctrace.DefaultConfig()); err != nil {
			t.Fatal(err)
		}
		if err := run(c); err != nil {
			t.Fatal(err)
		}
		checkChurnSums(t, c)
		return snapshotOf(t, c)
	}
	for _, tc := range []struct {
		name     string
		workload func(*testing.T, func(*Cluster) error) ringSnapshot
	}{{"token ring", token}, {"churn ring", churn}} {
		t.Run(tc.name, func(t *testing.T) {
			var seqC, parC *Cluster
			seq := tc.workload(t, func(c *Cluster) error { seqC = c; return c.RunSequentialRef(2_000_000) })
			par := tc.workload(t, func(c *Cluster) error { parC = c; return c.RunParallel(2_000_000) })
			checkSame(t, "seq vs par", seq, par)
			for _, n := range seqC.Nodes() {
				if n.wins.worker != 0 {
					t.Errorf("sequential reference ran %d windows of node %s on a worker", n.wins.worker, n.Name())
				}
			}
			var worker, inline, moved int
			for _, n := range parC.Nodes() {
				worker += n.wins.worker
				inline += n.wins.inline
				moved += n.wins.inlineAfterWorker
			}
			if worker == 0 || inline == 0 || moved == 0 {
				t.Errorf("node windows: %d on workers, %d inline, %d inline after a worker window; want all > 0",
					worker, inline, moved)
			}
			t.Logf("node windows: %d on workers, %d inline, %d inline after a worker window", worker, inline, moved)
		})
	}
}

// TestParallelAbortFlushesObs: a faulting node under the parallel engine
// aborts the run with the node named in the error, and the abort path
// still flushes a final telemetry frame and a partial trace dump even
// though a sibling node is wedged in an infinite poll.
func TestParallelAbortFlushesObs(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 3
	cfg.WireLatency = 50_000 // packet still on the wire at fault time
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range c.Nodes() {
		n.MapIO(false)
	}
	if _, err := c.AttachTrace(journey.DefaultConfig(), ctrace.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	s := telemetry.New()
	if err := c.AttachTelemetry(s, 100_000_000); err != nil { // period longer than the run
		t.Fatal(err)
	}
	// Node 0 sends (default route: node 1), spins past its NIC transmit,
	// then faults; node 1 polls forever for a packet still crossing the
	// wire; node 2 polls forever for a packet that never comes.
	bad := `
	.equ NICREG, 0x40000000
	.equ PKTBUF, 0x40001000
	set NICREG, %o0
	set PKTBUF, %o1
	set 1, %g1
	stx %g1, [%o1]
	membar
	set 8, %g4
	sll %g4, 48, %g4
	stx %g4, [%o0]
	membar
	set 500, %g5
spin:	dec %g5
	tst %g5
	bnz spin
	set 0x70000000, %o1
	ldx [%o1], %g1
	halt
`
	if _, err := c.Node(0).M.LoadSource("bad.s", bad); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 3; i++ {
		if _, err := c.Node(i).M.LoadSource("wedge.s", ringGuest(0, 0, 1)); err != nil {
			t.Fatal(err)
		}
	}
	err = c.RunParallel(10_000_000)
	if err == nil {
		t.Fatal("expected node fault")
	}
	if !strings.Contains(err.Error(), "n0") {
		t.Errorf("error does not name the faulting node: %v", err)
	}
	if s.Snapshot() == nil {
		t.Fatal("no telemetry frame flushed on the abort path")
	}
	spans := c.Trace().Retained()
	if len(spans) != 1 || spans[0].Done {
		t.Fatalf("expected one partial span, got %+v", spans)
	}
}

// TestParallelTelemetryUnderLoad publishes telemetry frames from the
// parallel engine while a live SSE subscriber consumes the stream — the
// cross-goroutine surface the -race job watches.
func TestParallelTelemetryUnderLoad(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 4
	cfg.Topology = TopoRing
	cfg.WireLatency = 60
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range c.Nodes() {
		n.MapIO(false)
		if _, err := n.M.LoadSource("ring.s", ringGuest(10*(i+1), 2, 2)); err != nil {
			t.Fatal(err)
		}
	}
	s := telemetry.New()
	if err := c.AttachTelemetry(s, 50); err != nil {
		t.Fatal(err)
	}
	addr, stop, err := s.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	// Prime one frame so the SSE connect below gets its response headers
	// immediately (the handler flushes on the first event).
	s.Publish(0)
	resp, err := http.Get("http://" + addr + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	frames := make(chan telemetry.Frame, 1024)
	go func() {
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			line := sc.Text()
			if !strings.HasPrefix(line, "data: ") {
				continue
			}
			var f telemetry.Frame
			if json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &f) == nil {
				select {
				case frames <- f:
				default:
				}
			}
		}
	}()

	if err := c.RunParallel(2_000_000); err != nil {
		t.Fatal(err)
	}
	f := <-frames
	for _, name := range []string{"n0", "n3", "cluster"} {
		if f.Nodes[name] == nil {
			t.Errorf("streamed frame missing node %q", name)
		}
	}
}

// TestTxDestSteering: a guest writing RegTxDest overrides the mesh
// default route — node 0 sends to node 2 directly, node 1 sees nothing.
func TestTxDestSteering(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 3
	cfg.WireLatency = 40
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range c.Nodes() {
		n.MapIO(false)
	}
	steer := `
	.equ NICREG, 0x40000000
	.equ PKTBUF, 0x40001000
	set NICREG, %o0
	set PKTBUF, %o1
	set 0x77, %g1
	stx %g1, [%o1]
	membar
	set 2, %g2
	stx %g2, [%o0+0x30]
	set 8, %g4
	sll %g4, 48, %g4
	stx %g4, [%o0]
	membar
	halt
`
	if _, err := c.Node(0).M.LoadSource("steer.s", steer); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Node(1).M.LoadSource("idle.s", "halt\n"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Node(2).M.LoadSource("recv.s", ringGuest(0, 0, 1)); err != nil {
		t.Fatal(err)
	}
	if err := c.RunParallel(1_000_000); err != nil {
		t.Fatal(err)
	}
	if got := c.Node(2).M.RAM.ReadUint(0x20000, 8); got != 0x77 {
		t.Errorf("steered packet: node 2 got %#x, want 0x77", got)
	}
	if got := c.Node(1).NIC.RxHighWater(); got != 0 {
		t.Errorf("default-route node 1 saw %d RX words, want 0", got)
	}
}

// TestStarTopologyRouting: leaves default-route to the hub; the hub must
// steer, and an unsteered hub packet is dropped and counted.
func TestStarTopologyRouting(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 4
	cfg.Topology = TopoStar
	cfg.WireLatency = 40
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.DefaultRoute(0); got != -1 {
		t.Errorf("star hub default route = %d, want -1 (must steer)", got)
	}
	for i := 1; i < 4; i++ {
		if got := c.DefaultRoute(i); got != 0 {
			t.Errorf("leaf %d default route = %d, want hub", i, got)
		}
		if _, ok := c.Link(i, 0); !ok {
			t.Errorf("leaf %d has no hub link", i)
		}
	}
	if _, ok := c.Link(1, 2); ok {
		t.Error("star leaves must not be directly linked")
	}
	for _, n := range c.Nodes() {
		n.MapIO(false)
	}
	c.AttachCounters()
	// Leaf 1 sends one packet on the default route (the hub picks it up);
	// the hub sends one packet with no steering — dropped.
	if _, err := c.Node(0).M.LoadSource("hub.s", ringGuest(9, 1, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Node(1).M.LoadSource("leaf.s", ringGuest(5, 1, 0)); err != nil {
		t.Fatal(err)
	}
	for i := 2; i < 4; i++ {
		if _, err := c.Node(i).M.LoadSource("idle.s", "halt\n"); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.RunParallel(1_000_000); err != nil {
		t.Fatal(err)
	}
	if got := c.Node(0).M.RAM.ReadUint(0x20000, 8); got != 5 {
		t.Errorf("hub received %d, want 5", got)
	}
	snap := c.Registry().Snapshot()
	if got := snap.Counters["cluster/route_drops"]; got != 1 {
		t.Errorf("route_drops = %d, want 1 (unsteered hub packet)", got)
	}
}

// TestLinkBandwidthSerializes: a finite-bandwidth link stretches delivery
// of back-to-back packets relative to an infinitely fast one.
func TestLinkBandwidthSerializes(t *testing.T) {
	run := func(cpw uint64) uint64 {
		cfg := DefaultConfig()
		cfg.WireLatency = 20
		cfg.Bandwidth = cpw
		c, err := NewPair(cfg)
		if err != nil {
			t.Fatal(err)
		}
		c.Node(0).MapIO(false)
		c.Node(1).MapIO(false)
		if _, err := c.Node(0).M.LoadSource("send.s", ringGuest(1, 6, 0)); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Node(1).M.LoadSource("recv.s", ringGuest(0, 0, 6)); err != nil {
			t.Fatal(err)
		}
		if err := c.RunParallel(1_000_000); err != nil {
			t.Fatal(err)
		}
		return c.Cycle()
	}
	fast := run(0)
	slow := run(400)
	if slow < fast+400 {
		t.Errorf("bandwidth not honored: %d vs %d cycles", fast, slow)
	}
}

// TestLinkDepthDrops: a depth-1 link drops the excess of a burst and the
// drop surfaces in cluster/link_drops.
func TestLinkDepthDrops(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WireLatency = 5000 // long enough that the burst overlaps in flight
	cfg.LinkDepth = 1
	c, err := NewPair(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Node(0).MapIO(false)
	c.Node(1).MapIO(false)
	c.AttachCounters()
	if _, err := c.Node(0).M.LoadSource("send.s", ringGuest(1, 3, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Node(1).M.LoadSource("recv.s", ringGuest(0, 0, 1)); err != nil {
		t.Fatal(err)
	}
	if err := c.RunParallel(1_000_000); err != nil {
		t.Fatal(err)
	}
	snap := c.Registry().Snapshot()
	if got := snap.Counters["cluster/link_drops"]; got != 2 {
		t.Errorf("link_drops = %d, want 2", got)
	}
	if got := c.Node(1).M.RAM.ReadUint(0x20000, 8); got != 1 {
		t.Errorf("survivor packet = %d, want 1", got)
	}
}

// TestSetLinkOverride: per-link latency overrides hold, and overriding a
// non-edge fails.
func TestSetLinkOverride(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 4
	cfg.Topology = TopoRing
	cfg.WireLatency = 30
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SetLink(0, 1, LinkConfig{Latency: 900}); err != nil {
		t.Fatal(err)
	}
	if lc, ok := c.Link(0, 1); !ok || lc.Latency != 900 {
		t.Errorf("override not applied: %+v", lc)
	}
	if lc, ok := c.Link(1, 0); !ok || lc.Latency != 30 {
		t.Errorf("reverse direction touched: %+v", lc)
	}
	if err := c.SetLink(0, 2, LinkConfig{Latency: 1}); err == nil {
		t.Error("SetLink accepted a non-edge of the ring")
	}
	if err := c.SetLink(0, 9, LinkConfig{}); err == nil {
		t.Error("SetLink accepted an out-of-range node")
	}
}

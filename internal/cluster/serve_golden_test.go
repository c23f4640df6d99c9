package cluster_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"csbsim/internal/bench"
	"csbsim/internal/cluster"
	"csbsim/internal/cluster/loadgen"
	"csbsim/internal/fault"
)

var update = flag.Bool("update", false, "rewrite golden files")

// serveClient configures one loadgen client node of a golden serving run.
type serveClient struct {
	lg     loadgen.Config
	faults string // machine fault spec attached to the client node, "" for none
}

// serveGoldenRun builds a faulted 4-node star serving cluster — node 0
// runs the CSB loadgen server, which polls its NIC with uncached loads;
// nodes 1-3 are open-loop clients configured by clients — runs it for
// cycles on one engine and returns every node's Stats, the loadgen
// accounting and the wire-fault accounting as JSON lines.
func serveGoldenRun(t *testing.T, parallel bool, cycles uint64, clients []serveClient) []byte {
	t.Helper()
	cfg := cluster.DefaultConfig()
	cfg.Nodes = 1 + len(clients)
	cfg.Topology = cluster.TopoStar
	c, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fcfg, err := fault.ParseSpec("wiredrop=8,outage=2,outagemax=300,seed=1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.AttachWireFaults(fcfg); err != nil {
		t.Fatal(err)
	}
	src, err := loadgen.ServerProgram(bench.SendCSB, 8)
	if err != nil {
		t.Fatal(err)
	}
	loadgen.ServerMapIO(c.Node(0), bench.SendCSB)
	if _, err := c.Node(0).M.LoadSource("server.s", src); err != nil {
		t.Fatal(err)
	}
	var gens []*loadgen.Generator
	for i, cl := range clients {
		n := c.Node(1 + i)
		if _, err := n.M.LoadSource("client.s", "halt\n"); err != nil {
			t.Fatal(err)
		}
		if cl.faults != "" {
			mcfg, err := fault.ParseSpec(cl.faults)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := n.M.AttachFaults(mcfg); err != nil {
				t.Fatal(err)
			}
		}
		g := loadgen.New(cl.lg)
		if err := g.Attach(c, 1+i); err != nil {
			t.Fatal(err)
		}
		gens = append(gens, g)
	}
	if err := c.RunFor(cycles, parallel); err != nil {
		t.Fatal(err)
	}

	var lines [][]byte
	add := func(v any) {
		t.Helper()
		js, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, js)
	}
	for _, n := range c.Nodes() {
		add(map[string]any{"node": n.Name(), "stats": n.M.Stats()})
	}
	var lg []loadgen.Stats
	for _, g := range gens {
		lg = append(lg, g.Stats())
	}
	add(map[string]any{"loadgen": lg})
	fs := c.WireFaults().Stats()
	add(map[string]any{"wire_faults": fs})
	if fs.WireDrops == 0 || fs.OutageWindows == 0 {
		t.Errorf("wire faults never fired, the golden would not cover retries: %+v", fs)
	}
	for i, cl := range clients {
		if cl.faults == "" {
			continue
		}
		if f := c.Node(1 + i).M.Faults().Stats(); f.DeviceStalls == 0 || f.BackpressureWindows == 0 {
			t.Errorf("client %d: NIC faults never fired: %+v", 1+i, f)
		}
	}
	out := append([]byte("[\n"), bytes.Join(lines, []byte(",\n"))...)
	return append(out, "\n]\n"...)
}

// checkServeGolden runs a golden serving scenario on the parallel engine
// and on the sequential reference, requires the two to agree byte for
// byte, and compares the result with testdata/<file> (rewritten with
// -update).
func checkServeGolden(t *testing.T, file string, run func(parallel bool) []byte) {
	t.Helper()
	par := run(true)
	seq := run(false)
	if !bytes.Equal(par, seq) {
		t.Fatalf("parallel and sequential-reference engines disagree:\n%s\n---- vs ----\n%s", par, seq)
	}
	golden := filepath.Join("testdata", file)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, par, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(par, want) {
		return
	}
	wl := bytes.Split(want, []byte("\n"))
	for i, gl := range bytes.Split(par, []byte("\n")) {
		if i >= len(wl) || !bytes.Equal(gl, wl[i]) {
			t.Fatalf("serve timing drifted from %s (refresh with -update) at line %d:\ngot  %s", golden, i+1, gl)
		}
	}
	t.Fatalf("serve timing drifted from %s (refresh with -update): %d lines, want %d",
		golden, bytes.Count(par, []byte("\n")), len(wl)-1)
}

// TestServeTimingGolden pins the serving workload's timing: a faulted
// 4-node star whose server core spends most cycles polling a device
// register with retire-executed uncached loads, and three uniform
// clients with timeouts and retries. Every node's Stats JSON (cycles,
// CPI stack, every layer's counters), the loadgen accounting and the
// wire-fault accounting must match testdata/serve_timing.golden.json
// byte for byte on both the parallel engine and the sequential reference.
// TestPipelineTimingGolden has no device-polling guest; this is the check
// that a core scheduling change keeps polling timing exact.
// Refresh with: go test ./internal/cluster -run TestServeTimingGolden -update
func TestServeTimingGolden(t *testing.T) {
	var clients []serveClient
	for i := 1; i <= 3; i++ {
		clients = append(clients, serveClient{lg: loadgen.Config{
			MeanGap:    3030,
			Seed:       uint64(1 + i),
			Words:      8,
			Servers:    []int{0},
			Timeout:    6000,
			MaxRetries: 4,
		}})
	}
	checkServeGolden(t, "serve_timing.golden.json", func(parallel bool) []byte {
		return serveGoldenRun(t, parallel, 300_000, clients)
	})
}

// TestServeClientMixGolden pins a serving run whose clients differ in
// how they idle: two clients carry NIC device faults (latency bursts and
// FIFO backpressure windows, drawn from a PRNG on every bus tick), and
// the third issues bursty traffic between a warmup and an issue cutoff.
// Its short timeout makes bursts time out, so it keeps expiring
// deadlines and firing retries after it stops issuing (a run cut at the
// cutoff ends with 46 of its 51 retries). Same engines and golden
// discipline as TestServeTimingGolden.
// Refresh with: go test ./internal/cluster -run TestServeClientMixGolden -update
func TestServeClientMixGolden(t *testing.T) {
	clients := []serveClient{
		{lg: loadgen.Config{MeanGap: 3030, Seed: 2, Words: 8, Servers: []int{0},
			Timeout: 6000, MaxRetries: 4},
			faults: "devstall=64,backpressure=32,seed=5"},
		{lg: loadgen.Config{MeanGap: 2500, Dist: loadgen.DistHeavyTail, Seed: 3, Words: 8,
			Servers: []int{0}, Timeout: 6000, MaxRetries: 4},
			faults: "devstall=128,devstallmax=200,backpressure=16,seed=9"},
		{lg: loadgen.Config{MeanGap: 3030, Dist: loadgen.DistBursty, Seed: 4, Words: 8,
			Servers: []int{0}, Warmup: 20_000, IssueUntil: 250_000, Timeout: 2000, MaxRetries: 4}},
	}
	checkServeGolden(t, "serve_clients.golden.json", func(parallel bool) []byte {
		return serveGoldenRun(t, parallel, 300_000, clients)
	})
}

package loadgen

import (
	"bytes"
	"encoding/json"
	"slices"
	"testing"

	"csbsim/internal/bench"
	"csbsim/internal/cluster"
	"csbsim/internal/cluster/ctrace"
	"csbsim/internal/fault"
	"csbsim/internal/obs/journey"
)

// idleConfigs are client shapes whose quiet spans end on different
// events: uniform issue gaps, bursts of back-to-back requests between a
// warmup and an issue cutoff (then deadlines and retries only), and
// heavy-tailed gaps.
var idleConfigs = []Config{
	{MeanGap: 1500, Seed: 3, Words: 8, Timeout: 2500, MaxRetries: 3},
	{MeanGap: 1500, Dist: DistBursty, Seed: 5, Words: 8, Warmup: 10_000,
		IssueUntil: 90_000, Timeout: 1500, MaxRetries: 4},
	{MeanGap: 1200, Dist: DistHeavyTail, Seed: 9, Words: 4, Timeout: 3000, MaxRetries: 2},
}

// idleWireFaults makes replies go missing, arrive twice or arrive late,
// so deadlines expire and retries fire.
var idleWireFaults = fault.Config{Seed: 5, WireDrop: 16, WireDup: 8,
	WireDelay: 16, WireDelayMax: 200, LinkOutage: 2, LinkOutageMax: 800}

// genState is everything a quiet Step must leave unchanged, apart from
// the retry queue's contents.
type genState struct {
	stats            Stats
	reqID, nextIssue uint64
	dlHead, dlqLen   int
	rxPending        int
	rxPops           uint64
	rxHave           int
}

func (g *Generator) state() genState {
	return genState{g.stats, g.reqID, g.nextIssue, g.dlHead, len(g.dlq),
		g.node.NIC.RxPending(), g.node.NIC.RxPops(), g.rxHave}
}

// checkedHook runs a generator and, on every cycle before the event its
// NextEvent predicted, asserts Step changed nothing. Its own NextEvent
// returns cycle, so the engine steps every cycle and checks them all.
type checkedHook struct {
	t             *testing.T
	g             *Generator
	quiet, events int
}

func (h *checkedHook) Step(cycle uint64) bool {
	if h.g.NextEvent(cycle) <= cycle {
		h.events++
		return h.g.Step(cycle)
	}
	h.quiet++
	before, retryq := h.g.state(), slices.Clone(h.g.retryq)
	ok := h.g.Step(cycle)
	if after := h.g.state(); !ok || after != before || !slices.Equal(h.g.retryq, retryq) {
		h.t.Errorf("cycle %d before NextEvent %d: Step changed %+v to %+v, retry queue %v to %v (ok %v)",
			cycle, h.g.NextEvent(cycle), before, after, retryq, h.g.retryq, ok)
	}
	return ok
}

func (h *checkedHook) NextEvent(cycle uint64) uint64 { return cycle }

// TestNextEventQuietCycles: at every cycle before Generator.NextEvent,
// Step leaves the accounting, request IDs, issue schedule, deadline
// queue, retry queue and RX queue unchanged.
func TestNextEventQuietCycles(t *testing.T) {
	for i, cfg := range idleConfigs {
		c, g := serveCluster(t, bench.SendPIO, cfg)
		if _, err := c.AttachWireFaults(idleWireFaults); err != nil {
			t.Fatal(err)
		}
		h := &checkedHook{t: t, g: g}
		c.SetNodeHook(0, h)
		if err := c.RunFor(120_000, false); err != nil {
			t.Fatal(err)
		}
		st := g.Stats()
		if st.Issued == 0 || st.Timeouts == 0 || st.Retries == 0 {
			t.Errorf("config %d never exercised issue, timeout and retry: %+v", i, st)
		}
		if h.quiet < 10*h.events {
			t.Errorf("config %d: only %d quiet cycles against %d event cycles", i, h.quiet, h.events)
		}
	}
}

// countingHook counts the Step calls the engine makes.
type countingHook struct {
	g     *Generator
	steps int
}

func (h *countingHook) Step(cycle uint64) bool        { h.steps++; return h.g.Step(cycle) }
func (h *countingHook) NextEvent(cycle uint64) uint64 { return h.g.NextEvent(cycle) }

// serveResult renders the cluster's halt cycle, every node's Stats, the
// generator's accounting, the cluster registry snapshot and the
// wire-trace dump.
func serveResult(t *testing.T, c *cluster.Cluster, g *Generator) []byte {
	t.Helper()
	out := []any{c.HaltCycle()}
	for _, n := range c.Nodes() {
		out = append(out, n.M.Stats())
	}
	out = append(out, g.Stats(), c.Registry().Snapshot())
	js, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	var dump bytes.Buffer
	if _, err := c.Trace().WriteTo(&dump); err != nil {
		t.Fatal(err)
	}
	return append(js, dump.Bytes()...)
}

// TestIdleSkipMatchesStepping: a client node that fast-forwards its quiet
// spans ends in exactly the state of one stepped every cycle (its hook
// wrapped in a HookFunc, which cannot predict), on both engines. The
// fabric stages received packets for a while before they enter the RX
// queue, and is traced, so arrival and enqueue are distinct stamped
// events. The fast-forwarding client must call Step on far fewer cycles
// than it runs; one whose NIC carries fault hooks never skips. A client
// whose core halted before the cluster run must still report the same
// halt cycle.
func TestIdleSkipMatchesStepping(t *testing.T) {
	const cycles = 120_000
	ccfg := cluster.DefaultConfig()
	ccfg.WireLatency = 80
	ccfg.RxEnqueueDelay = 150
	for i, cfg := range idleConfigs {
		for _, variant := range []string{"plain", "nic-faults", "pre-halted"} {
			run := func(skip, parallel bool) ([]byte, int) {
				c, g := serveClusterCfg(t, ccfg, bench.SendPIO, cfg)
				if _, err := c.AttachWireFaults(idleWireFaults); err != nil {
					t.Fatal(err)
				}
				if _, err := c.AttachTrace(journey.DefaultConfig(), ctrace.DefaultConfig()); err != nil {
					t.Fatal(err)
				}
				switch variant {
				case "nic-faults":
					if _, err := c.Node(0).M.AttachFaults(fault.Config{Seed: 3,
						DeviceStall: 64, DeviceStallMax: 40, NICBackpressure: 64, NICBackpressureMax: 40}); err != nil {
						t.Fatal(err)
					}
				case "pre-halted":
					if err := c.Node(0).M.Run(10_000); err != nil {
						t.Fatal(err)
					}
				}
				h := &countingHook{g: g}
				if skip {
					c.SetNodeHook(0, h)
				} else {
					c.SetNodeHook(0, cluster.HookFunc(h.Step))
				}
				if err := c.RunFor(cycles, parallel); err != nil {
					t.Fatal(err)
				}
				return serveResult(t, c, g), h.steps
			}
			want, stepped := run(false, false)
			if stepped != cycles {
				t.Fatalf("config %d: a HookFunc client stepped %d of %d cycles", i, stepped, cycles)
			}
			for _, parallel := range []bool{false, true} {
				got, steps := run(true, parallel)
				if !bytes.Equal(got, want) {
					t.Fatalf("config %d (%s, parallel %v): fast-forward diverged from stepping:\n%s\n---- vs ----\n%s",
						i, variant, parallel, got, want)
				}
				switch {
				case variant == "nic-faults" && steps != cycles:
					t.Errorf("config %d: client with NIC fault hooks stepped %d of %d cycles", i, steps, cycles)
				case variant != "nic-faults" && steps > cycles/10:
					t.Errorf("config %d (%s): idle client stepped %d of %d cycles", i, variant, steps, cycles)
				}
			}
		}
	}
}

// TestFaultedIdleClientFailsFirstWindow: a client whose core faulted
// before the cluster run is halted and quiet, but must not fast-forward:
// the run fails at the end of the first window, as when stepped.
func TestFaultedIdleClientFailsFirstWindow(t *testing.T) {
	c, _ := serveCluster(t, bench.SendPIO, Config{MeanGap: 50_000, Seed: 1, Words: 8})
	m := c.Node(0).M
	if _, err := m.LoadSource("fault.s", "set 0x90000000, %o0\nldx [%o0], %o1\nhalt\n"); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(10_000); err == nil || m.CPU.Err() == nil {
		t.Fatalf("client program did not fault: %v", err)
	}
	if err := c.RunFor(100_000, false); err == nil {
		t.Fatal("run with a faulted client succeeded")
	}
	if got := c.Cycle(); got != 80 {
		t.Errorf("run failed at cycle %d, want the first 80-cycle window's end", got)
	}
}

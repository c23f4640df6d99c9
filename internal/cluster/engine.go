// The windowed conservative-lookahead engine: the classic conservative
// parallel-discrete-event scheme (gem5's multi-system KVM sync and CMB
// null messages are the references) applied to the cluster. The minimum
// link latency W is the lookahead: a packet pumped at cycle t cannot
// arrive anywhere before t+W, so every node can tick a whole window of W
// cycles on its own without observing an inbound packet the coordinator
// hasn't already delivered to its inbox. Between windows a
// single-threaded barrier routes the window's departures, delivers the
// flights due at the window's last cycle, replays the deferred tracer
// logs in node order, and publishes telemetry.
//
// Dispatch: the parallel engine hands a window to worker goroutines only
// when it pays. At each barrier the coordinator counts the nodes whose
// CPU is running. With two or more, each running node's window goes to
// that node's worker and the coordinator runs the halted and frozen
// nodes inline, then waits; with fewer, it runs every window inline, as
// RunSequentialRef does. A halted node fast-forwards its quiet spans, so
// it costs little inline, and one running node has nothing to overlap
// with. Workers start on the first window that needs them.
//
// Determinism: a node's window run touches only node-local state (its
// machine, its NIC, its inbox positions, its event log and outbox), and
// every shared-state mutation — routing, tracer stamps, counters reads —
// happens at the barrier in a fixed order: departures are routed in
// (pump cycle, node index, push order), trace logs replayed in node
// order. RunSequentialRef executes the identical window/barrier schedule
// inline, so the parallel run is byte-identical to the sequential
// reference by construction, not by luck.
package cluster

import "fmt"

// soloLookahead is the window used when the cluster has no links at all
// (a single node): there is nothing to synchronize with, so the window is
// just a large batching factor.
const soloLookahead = 4096

// lookahead computes the window W = min link latency. A zero-latency link
// gives a one-cycle window: a packet pumped at cycle t is then due at t
// itself, and the barrier delivers it right after routing it.
func (c *Cluster) lookahead() uint64 {
	w, linked := uint64(0), false
	for i := range c.links {
		for j := range c.links[i] {
			if l := c.links[i][j]; l != nil && (!linked || l.Latency < w) {
				w, linked = l.Latency, true
			}
		}
	}
	if !linked {
		return soloLookahead
	}
	return max(w, 1)
}

// runWindow advances this node through the window (start, end]: per cycle
// it runs the node hook, ticks the machine (unless frozen) and pumps
// freshly transmitted packets into the outbox; on every cycle but the
// last it also applies due inbound flights. The last cycle's flights are
// applied at the barrier, after routing, so a packet sent over a
// zero-latency link arrives in the cycle it left: at W=1 every cycle
// runs tick → pump → route → applyDue. Everything touched is node-local, so
// windows of different nodes run concurrently. A frozen, hook-less node
// skips the cycle loop: the barrier's applyDue catches its inbox up, and
// stamps use the flights' own due cycles, so the fast-forward is exact.
// A halted node whose machine and hook are quiet jumps over its quiet
// span with Machine.SkipIdle (see quietSpan).
//
//csb:hotpath
//csb:worker runs a whole lookahead window on the node's own goroutine
func (n *Node) runWindow(start, end uint64) {
	if n.frozen && !n.hookActive() {
		return
	}
	for cyc := start + 1; cyc <= end; cyc++ {
		if k := n.quietSpan(cyc, end); k > 0 {
			n.M.SkipIdle(k)
			if n.haltCycle == 0 {
				n.haltCycle = cyc
			}
			if cyc += k; cyc > end {
				return
			}
		}
		if n.hookActive() {
			if !n.hook.Step(cyc) {
				n.hookDone = true
			}
		}
		if !n.frozen {
			n.M.Tick()
			if err := n.M.CPU.Err(); err != nil {
				n.err = err
				n.frozen = true
			} else if n.M.CPU.Halted() {
				if n.haltCycle == 0 {
					n.haltCycle = cyc
				}
				if !n.hookActive() && n.M.Settled() {
					// Halted with every engine quiet and no live hook:
					// further ticks are no-ops, stop paying for them.
					n.frozen = true
				}
			}
		}
		n.pump(cyc)
		if cyc < end {
			n.applyDue(cyc)
		}
	}
}

// quietSpan returns how many cycles from cyc on the node may skip in one
// SkipIdle, 0 to step cyc normally. It needs a live hook on a halted,
// unfrozen, unfaulted machine (a hook-less one freezes instead, a faulted
// one must step so runWindow records its error), and the span ends
// before the first of: the hook's next event, the next RX enqueue, the
// machine's IdleSpan cap and the window end. Over such a span every
// skipped cycle would run a no-op hook step, a Tick that only advances
// clocks and an empty pump. Its applyDue could only stamp arrivals, and
// those use the flights' own due cycles, so the applyDue of the next
// stepped cycle (or of the barrier) catches them up exactly.
//
//csb:hotpath
func (n *Node) quietSpan(cyc, end uint64) uint64 {
	if n.frozen || !n.hookActive() || !n.M.CPU.Halted() || n.M.CPU.Err() != nil {
		return 0
	}
	to := min(n.hook.NextEvent(cyc), end+1)
	if n.enqPos < len(n.inbox) {
		to = min(to, n.inbox[n.enqPos].dueEnq)
	}
	if to <= cyc {
		return 0
	}
	return min(to-cyc, n.M.IdleSpan())
}

// running reports whether the node's CPU executes instructions in the
// next window, which makes it worth a worker handoff.
func (n *Node) running() bool { return !n.frozen && !n.M.CPU.Halted() }

// nodeWorkers is the parallel engine's worker pool: one goroutine per
// node, started the first time that node is handed a window, so a run
// that never has two running nodes starts none. The start/done channel
// pairs give the barrier its happens-before edges: the coordinator's
// sends publish the routed inboxes to the workers, the workers'
// completions publish window state back to the coordinator.
type nodeWorkers struct {
	start []chan [2]uint64 // per node; nil until its worker starts
	done  chan struct{}
}

// send hands node i's window (start, end] to its worker, starting the
// worker on first use.
func (w *nodeWorkers) send(i int, n *Node, start, end uint64) {
	if w.start[i] == nil {
		ch := make(chan [2]uint64, 1)
		w.start[i] = ch
		//csb:worker the per-node goroutine body: one window per start-channel message
		go func() {
			for win := range ch {
				n.runWindow(win[0], win[1])
				w.done <- struct{}{}
			}
		}()
	}
	w.start[i] <- [2]uint64{start, end}
}

// stop retires the worker goroutines.
func (w *nodeWorkers) stop() {
	for _, ch := range w.start {
		if ch != nil {
			close(ch)
		}
	}
}

// runNodes runs the window (start, end] on every node. With workers (the
// parallel engine) and at least two running nodes, each running node's
// window goes to its worker; the coordinator runs every other node's
// window inline, then waits for the workers. Otherwise every window runs
// inline, as in RunSequentialRef. An inline node runs under the same
// two-phase contract as on a worker: runWindow touches only its node.
func (c *Cluster) runNodes(start, end uint64, w *nodeWorkers) {
	handoffs := 0
	if w != nil {
		for _, n := range c.nodes {
			if n.running() {
				handoffs++
			}
		}
		if handoffs < 2 {
			handoffs = 0
		}
	}
	// Each node is marked before its own window starts, so running()
	// still reads the state the count saw.
	for i, n := range c.nodes {
		n.onWorker = handoffs > 0 && n.running()
		if n.onWorker {
			n.wins.worker++
			w.send(i, n, start, end)
		}
	}
	for _, n := range c.nodes {
		if !n.onWorker {
			n.runWindow(start, end)
			n.wins.inline++
			if n.wins.worker > 0 {
				n.wins.inlineAfterWorker++
			}
		}
	}
	for range handoffs {
		<-w.done
	}
}

// runWindowed is the shared coordinator loop for the windowed engine.
func (c *Cluster) runWindowed(limit uint64, parallel, limitIsErr bool) error {
	w := c.lookahead()
	var workers *nodeWorkers
	if parallel {
		workers = &nodeWorkers{
			start: make([]chan [2]uint64, len(c.nodes)),
			done:  make(chan struct{}, len(c.nodes)),
		}
		defer workers.stop()
	}
	c.startObs()
	horizon := c.cycle + limit
	for c.cycle < horizon {
		end := c.cycle + w
		if end > horizon {
			end = horizon
		}
		c.runNodes(c.cycle, end, workers)
		c.cycle = end
		// Barrier: all node goroutines are parked; shared state is ours.
		// The window's trace events replay before routing opens new
		// spans; the deliveries due at `end` follow routing, so a
		// zero-latency packet lands in the cycle it was pumped.
		c.drainTraceLogs()
		c.routeAll()
		for _, n := range c.nodes {
			n.applyDue(end)
		}
		c.drainTraceLogs()
		c.compactInboxes()
		c.maybeRoll()
		c.maybePublish()
		for _, n := range c.nodes {
			if n.err != nil {
				c.flushObs()
				return fmt.Errorf("cluster: node %s: %w", n.name, n.err)
			}
		}
		if err := c.checkWatchdog(); err != nil {
			return err // checkWatchdog flushed observability state
		}
		if c.settled() {
			c.flushObs()
			return nil
		}
	}
	if limitIsErr {
		c.flushObs()
		return fmt.Errorf("cluster: cycle limit %d reached (%s)", limit, c.haltSummary())
	}
	c.flushObs()
	return nil
}

// settled reports whether the whole cluster has gone quiet: every node is
// frozen (halted and drained, hooks retired) and every inbound flight has
// been delivered.
func (c *Cluster) settled() bool {
	for _, n := range c.nodes {
		if !n.frozen || n.hookActive() || n.enqPos != len(n.inbox) {
			return false
		}
	}
	return true
}

// RunParallel advances the cluster on the parallel windowed engine —
// running nodes on worker goroutines while two or more CPUs run, the rest
// inline, under a conservative lookahead barrier — until every node halts
// and drains (or maxCycles elapse, an error). Any link latency works,
// zero included. The result (machine state, trace dumps, counter values)
// is byte-identical to RunSequentialRef with the same inputs.
func (c *Cluster) RunParallel(maxCycles uint64) error {
	return c.runWindowed(maxCycles, true, true)
}

// RunSequentialRef advances the cluster on the windowed engine with every
// window executed inline on one goroutine — the sequential reference the
// determinism guard compares RunParallel against.
func (c *Cluster) RunSequentialRef(maxCycles uint64) error {
	return c.runWindowed(maxCycles, false, true)
}

// RunFor advances the cluster on the windowed engine for a fixed horizon:
// reaching it is success, not an error — the shape serving experiments
// want, where server nodes never halt. Node faults still abort with an
// error. Observability state is flushed (and a final telemetry frame
// published) on every path.
func (c *Cluster) RunFor(cycles uint64, parallel bool) error {
	return c.runWindowed(cycles, parallel, false)
}

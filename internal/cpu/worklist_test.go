package cpu

import (
	"fmt"

	"csbsim/internal/isa"
)

// checkWorkLists verifies the scheduler's work lists against the ROB
// between Ticks: both lists are strictly seq-ascending and hold only live
// ROB uops, every uop a whole-ROB issue scan could still act on is on the
// issue list, and every executing or walking uop is on the execute list.
func (c *CPU) checkWorkLists() error {
	inROB := map[*uop]bool{}
	for _, u := range c.rob {
		inROB[u] = true
	}
	free := map[*uop]bool{}
	for _, u := range c.uopFree {
		free[u] = true
	}
	members := func(name string, l []*uop) (map[*uop]bool, error) {
		m := map[*uop]bool{}
		for i, u := range l {
			switch {
			case i > 0 && l[i-1].seq >= u.seq:
				return nil, fmt.Errorf("%s[%d] seq %d not above %s[%d] seq %d", name, i, u.seq, name, i-1, l[i-1].seq)
			case u.retired:
				return nil, fmt.Errorf("%s[%d] seq %d is retired", name, i, u.seq)
			case free[u]:
				return nil, fmt.Errorf("%s[%d] seq %d is on the free list", name, i, u.seq)
			case u.dead:
				return nil, fmt.Errorf("%s[%d] seq %d is dead", name, i, u.seq)
			case !inROB[u]:
				return nil, fmt.Errorf("%s[%d] seq %d is not in the ROB", name, i, u.seq)
			}
			m[u] = true
		}
		return m, nil
	}
	inIQ, err := members("iq", c.iq)
	if err != nil {
		return err
	}
	inEXQ, err := members("exq", c.exq)
	if err != nil {
		return err
	}
	for _, u := range c.rob {
		if u.dead {
			continue
		}
		// What the whole-ROB issue scan acted on: FU ops not yet issued,
		// and memory ops neither complete nor started in the cache, unless
		// translated and retire-executed.
		var scanned bool
		if u.isMem {
			scanned = !u.done && !u.memIssued && !(u.addrReady && u.needsRetireExec())
		} else {
			switch u.inst.Op.Class() {
			case isa.ClassInt, isa.ClassIntMul, isa.ClassBranch, isa.ClassFPU:
				scanned = !u.issued && !u.done
			}
		}
		if scanned && !inIQ[u] {
			return fmt.Errorf("seq %d (%s) is issuable but not on iq", u.seq, u.inst.String())
		}
		if (u.executing || u.walkStarted) && !inEXQ[u] {
			return fmt.Errorf("seq %d (%s) is executing or walking but not on exq", u.seq, u.inst.String())
		}
	}
	return nil
}

// checkIssueGate verifies the issue gate between Ticks: whenever the next
// walk would be skipped (the last one was idle and nothing has woken the
// core since), no uop on the issue list is actionable. It restates the
// walk's conditions without side effects, assuming the full per-cycle FU,
// AGU and port budgets an idle walk would have.
func (c *CPU) checkIssueGate() error {
	if c.idleGen != c.wakeGen {
		return nil
	}
	for _, u := range c.iq {
		var why string
		switch {
		case !u.issuable():
			why = "would be dropped from iq"
		case !u.isMem:
			if u.srcReady() {
				why = "FU op with ready sources"
			}
		case !u.agenDone:
			if u.addrSrcReady() {
				why = "agen pending with its address source ready"
			}
		case !u.addrReady:
			// TLB walk in flight: executeAdvance finishes it.
		case u.faulted:
			why = "faulted"
		case u.class == isa.ClassLoad:
			if !u.memIssued && !u.memWait && c.orderingSafe(u) {
				why = "cached load startable and ordering-safe"
			}
		case u.class == isa.ClassStore:
			if u.dataSrcReady() {
				why = "cached store with its data ready"
			}
		}
		if why != "" {
			return fmt.Errorf("issue gate skips the next walk, but seq %d (%s) is actionable: %s", u.seq, u.inst.String(), why)
		}
	}
	return nil
}

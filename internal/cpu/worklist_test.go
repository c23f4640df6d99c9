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

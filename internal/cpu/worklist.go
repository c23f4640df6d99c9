package cpu

import "csbsim/internal/isa"

// The scheduler's two work lists replace whole-ROB scans in issue and
// executeAdvance. Both are seq-ordered subsets of the ROB:
//
//   - iq, the issue list: dispatch appends every uop issue could act on
//     (everything but NOPs, invalid ops and non-memory barrier/system ops,
//     which only retire touches). A uop leaves when it issues to an FU,
//     starts its cache access, completes, dies, or finishes translating as
//     a retire-executed memory op — whose op and kind then never change,
//     so issue would never act on it again.
//   - exq, the execute list: uops executing on an FU or the cache, or in
//     a TLB walk, inserted in seq order when they start.
//
// Squashes leave both lists alone; each pass skips and drops dead uops,
// and both passes run before fetch can reuse a killed uop's slot. A
// flush clears them.

// issuable reports whether issue could still act on u: the condition
// for staying on the issue list.
func (u *uop) issuable() bool {
	if u.dead || u.done || u.executing {
		return false
	}
	if u.isMem {
		return !(u.addrReady && u.needsRetireExec())
	}
	return u.class != isa.ClassBarrier && u.class != isa.ClassSystem
}

// exqInsert adds u to the execute list in seq order. A starting uop is
// usually younger than most of the list, so the shift is short.
//
//csb:hotpath
//csb:pool — the execute list is pipeline-owned storage for in-flight uops.
func (c *CPU) exqInsert(u *uop) {
	q := append(c.exq, u)
	i := len(q) - 1
	for ; i > 0 && q[i-1].seq > u.seq; i-- {
		q[i] = q[i-1]
	}
	q[i] = u
	c.exq = q
}

package cpu

import (
	"csbsim/internal/cache"
	"csbsim/internal/core"
	"csbsim/internal/isa"
	"csbsim/internal/mem"
	"csbsim/internal/obs"
	"csbsim/internal/obs/counters"
	"csbsim/internal/uncbuf"
)

// StallCause re-exports the CPI-stack bucket type for hook signatures.
type StallCause = obs.StallCause

// CPU is the out-of-order core. It is wired to the cache hierarchy, the
// uncached buffer, the conditional store buffer and physical memory by the
// machine (internal/sim) and advanced one cycle at a time with Tick.
type CPU struct {
	cfg  Config
	arch ArchState

	hier *cache.Hierarchy
	ub   *uncbuf.Buffer
	csb  *core.CSB
	ram  *mem.Memory
	tlb  *mem.TLB
	pt   *mem.PageTable

	pred *predictor

	rob    []*uop
	fetchQ []*uop
	intRen [isa.NumRegs]*uop
	fpRen  [isa.NumFRegs]*uop
	ccRen  *uop
	seq    uint64

	// Allocation-free steady state: rob and fetchQ are windows into fixed
	// backing arrays (compacted to the front when a push reaches the end),
	// retired uops queue in retq (live from retqHead) until no in-flight
	// uop can reference them and then return to uopFree, and branch
	// snapshots recycle via snapFree. stBuf is the scratch encoding buffer
	// for store data.
	robBack  []*uop
	fqBack   []*uop
	uopFree  []*uop
	retq     []*uop
	retqHead int
	snapFree []*renSnap
	stBuf    [8]byte

	// The scheduler's work lists, both seq-ordered ROB subsets sharing one
	// backing array of 2*ROBSize (see worklist.go). iq holds the uops
	// issue could still act on; exq those executing or in a TLB walk.
	//csb:pool — pipeline-owned storage for in-flight uops.
	iq  []*uop
	exq []*uop

	// Issue wakeup: wakeGen counts the events that can change what the
	// issue walk does (see wake); idleGen is the generation at which the
	// last walk acted on nothing, so issue skips the walk while they match.
	wakeGen uint64
	idleGen uint64

	// Decoded-instruction cache: fetch skips the RAM read and decode for
	// PCs it has seen (see decache.go).
	decCache []decEntry
	decGen   uint32

	pc           uint64
	fetchBlocked bool
	fetchGen     uint64 // invalidates in-flight I-cache fill callbacks
	branchCount  int
	memCount     int

	stallCycles int // context-switch cost injected by the kernel

	halted  bool
	haltErr error

	pendingIntr uint64
	// InterruptHook, if set, runs when an interrupt is taken (after the
	// pipeline is flushed and ERPC/CAUSE are written). Returning true
	// means the hook handled it (e.g. a Go-level kernel switched
	// contexts); false vectors to IVEC.
	InterruptHook func(cause uint64) bool
	// TrapHook, if set, intercepts OpTRAP. Returning true treats the
	// trap as a handled "syscall": execution continues at the next
	// instruction. False vectors to IVEC.
	TrapHook func(code int64) bool
	// PIDChanged, if set, runs when software writes the PID privileged
	// register (the machine switches page tables here).
	PIDChanged func(pid uint8)
	// retireObs observes every retired instruction in commit order;
	// register with AttachRetire. Multiple observers (tracer, Perfetto
	// exporter, ...) coexist and run in attachment order.
	retireObs []func(RetireEvent)

	// Cycle-classification state for the CPI stack (see stall.go).
	retiredThisCycle bool
	cycleCause       StallCause
	cycleCauseSet    bool
	squashRefill     bool // ROB-empty cycles are a mispredict refill
	icacheMiss       bool // an I-cache fill for the current stream is in flight

	stats Stats
}

// RetireEvent describes one committed instruction for tracing.
type RetireEvent struct {
	Cycle  uint64
	Seq    uint64
	PC     uint64
	Inst   isa.Inst
	Result uint64 // destination value, if any
	Addr   uint64 // effective address for memory operations
	IsMem  bool

	// Lifecycle stamps in CPU cycles; 0 means the stage was not recorded
	// for this instruction (retire-executed operations skip issue, NOPs
	// complete at rename, ...). Cycle is the retire stamp.
	FetchCycle    uint64
	DispatchCycle uint64
	IssueCycle    uint64
	CompleteCycle uint64
}

// AttachRetire registers fn to observe every retired instruction in
// commit order. Observers are independent and run in attachment order, so
// a streaming tracer and a Perfetto exporter can coexist (the old public
// OnRetire field silently overwrote earlier hooks).
func (c *CPU) AttachRetire(fn func(RetireEvent)) {
	c.retireObs = append(c.retireObs, fn)
}

// New builds a core wired to its memory system.
func New(cfg Config, hier *cache.Hierarchy, ub *uncbuf.Buffer, csb *core.CSB, ram *mem.Memory) (*CPU, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &CPU{
		cfg:  cfg,
		hier: hier,
		ub:   ub,
		csb:  csb,
		ram:  ram,
		tlb:  mem.NewTLB(cfg.TLBEntries),
		pred: newPredictor(cfg.PredictorSize),
		// Double-capacity backings: pushes compact the live window to the
		// front only when it drifts past the halfway point, amortizing the
		// copy without ring-buffer indexing at every use site.
		robBack:  make([]*uop, 0, 2*cfg.ROBSize),
		fqBack:   make([]*uop, 0, 2*cfg.FetchQueue),
		decCache: make([]decEntry, decCacheSize),
		decGen:   1,
	}
	c.rob = c.robBack
	c.fetchQ = c.fqBack
	wl := make([]*uop, 2*cfg.ROBSize)
	c.iq = wl[:0:cfg.ROBSize]
	c.exq = wl[cfg.ROBSize:cfg.ROBSize:len(wl)]
	return c, nil
}

// newUop returns a zeroed uop from the free list (or a fresh one).
//
// Pool contract (the same no-retention rule bus.Txn documents): a *uop
// handed to a callback or observer is only valid until that call returns —
// recycleRetired reuses the slot as soon as no in-flight uop can reference
// it. Code that must hold one across cycles pin-counts it via u.pins; the
// noretain analyzer (cmd/csbvet) enforces this mechanically.
//
//csb:hotpath
func (c *CPU) newUop() *uop {
	if n := len(c.uopFree); n > 0 {
		u := c.uopFree[n-1]
		c.uopFree = c.uopFree[:n-1]
		*u = uop{}
		return u
	}
	return &uop{} //csb:alloc-ok — cold start: the pool grows until steady state
}

// newSnap returns a rename snapshot from the pool; its contents are
// overwritten in full by the caller.
//
// Snapshots follow the uop pool contract above: released to snapFree when
// the owning branch retires or is squashed, never to be retained past
// that point by anything outside the pipeline.
//
//csb:hotpath
func (c *CPU) newSnap() *renSnap {
	if n := len(c.snapFree); n > 0 {
		s := c.snapFree[n-1]
		c.snapFree = c.snapFree[:n-1]
		return s
	}
	return &renSnap{} //csb:alloc-ok — cold start: the pool grows until steady state
}

// releaseSnap returns u's snapshot (if any) to the pool.
//
//csb:hotpath
//csb:pool
func (c *CPU) releaseSnap(u *uop) {
	if u.snap != nil {
		c.snapFree = append(c.snapFree, u.snap)
		u.snap = nil
	}
}

// pushROB appends to the ROB window, compacting it to the front of its
// backing array when the window has drifted to the end.
//
//csb:hotpath
//csb:pool — the ROB is the pipeline's own storage for in-flight uops.
func (c *CPU) pushROB(u *uop) {
	if len(c.rob) == cap(c.rob) {
		c.rob = append(c.robBack[:0], c.rob...)
	}
	c.rob = append(c.rob, u)
}

//csb:hotpath
//csb:pool — the fetch queue is the pipeline's own storage for in-flight uops.
func (c *CPU) pushFetchQ(u *uop) {
	if len(c.fetchQ) == cap(c.fetchQ) {
		c.fetchQ = append(c.fqBack[:0], c.fetchQ...)
	}
	c.fetchQ = append(c.fetchQ, u)
}

// recycleRetired moves retired uops whose references have provably drained
// from the pipeline onto the free list. A uop retired at sequence stamp S
// can only be referenced (as a renamed source or in a branch snapshot) by
// uops fetched no later than S; once the oldest in-flight uop is younger,
// the slot is reusable. Pinned uops (outstanding fill/load callbacks) are
// dropped to the GC instead.
//
//csb:hotpath
//csb:pool
func (c *CPU) recycleRetired() {
	if c.retqHead == len(c.retq) {
		return
	}
	oldest := c.seq + 1 // pipeline empty: everything is recyclable
	if len(c.rob) > 0 {
		oldest = c.rob[0].seq
	} else if len(c.fetchQ) > 0 {
		oldest = c.fetchQ[0].seq
	}
	i := c.retqHead
	for ; i < len(c.retq); i++ {
		u := c.retq[i]
		if u.freeStamp >= oldest {
			break
		}
		if u.pins == 0 {
			c.uopFree = append(c.uopFree, u)
		}
	}
	c.retqHead = i
	if i == len(c.retq) {
		c.retq = c.retq[:0]
		c.retqHead = 0
	}
}

// pushRetired parks a retired uop on the retired queue, sliding the live
// part to the front once the consumed head reaches half the queue.
//
//csb:hotpath
//csb:pool
func (c *CPU) pushRetired(u *uop) {
	if len(c.retq) == cap(c.retq) && c.retqHead >= len(c.retq)/2 {
		c.retq = c.retq[:copy(c.retq, c.retq[c.retqHead:])]
		c.retqHead = 0
	}
	c.retq = append(c.retq, u)
}

// SetPageTable installs the page table used for data-address translation.
func (c *CPU) SetPageTable(pt *mem.PageTable) { c.pt = pt }

// PageTable returns the current page table.
func (c *CPU) PageTable() *mem.PageTable { return c.pt }

// TLB exposes the data TLB (the kernel flushes it when reusing ASIDs).
func (c *CPU) TLB() *mem.TLB { return c.tlb }

// Reset clears the pipeline and starts execution at entry.
func (c *CPU) Reset(entry uint64) {
	c.invalidateDecodeCache() // a new program may occupy the same PCs
	c.flushAll()
	c.arch = ArchState{PC: entry}
	c.pc = entry
	c.halted = false
	c.haltErr = nil
	c.pendingIntr = 0
	c.stallCycles = 0
}

// Halted reports whether the core has executed HALT or hit a fatal fault.
func (c *CPU) Halted() bool { return c.halted }

// Err returns the fatal condition that halted the core, if any.
func (c *CPU) Err() error { return c.haltErr }

// Stats returns a snapshot of the statistics.
func (c *CPU) Stats() Stats { return c.stats }

// RegisterCounters registers the core's counters with the unified
// registry under prefix (e.g. "cpu"), as read closures over the live
// stats — registration never perturbs simulation state.
func (c *CPU) RegisterCounters(prefix string, r *counters.Registry) {
	s := &c.stats
	r.Counter(prefix+"/cycles", func() uint64 { return s.Cycles })
	r.Counter(prefix+"/fetched", func() uint64 { return s.Fetched })
	r.Counter(prefix+"/retired", func() uint64 { return s.Retired })
	r.Counter(prefix+"/squashed", func() uint64 { return s.Squashed })
	r.Counter(prefix+"/branches", func() uint64 { return s.Branches })
	r.Counter(prefix+"/mispredicts", func() uint64 { return s.Mispredicts })
	r.Counter(prefix+"/cached_loads", func() uint64 { return s.CachedLoads })
	r.Counter(prefix+"/cached_stores", func() uint64 { return s.CachedStores })
	r.Counter(prefix+"/uncached_loads", func() uint64 { return s.UncachedLoads })
	r.Counter(prefix+"/uncached_stores", func() uint64 { return s.UncachedStores })
	r.Counter(prefix+"/csb_stores", func() uint64 { return s.CSBStores })
	r.Counter(prefix+"/csb_flushes", func() uint64 { return s.CSBFlushes })
	r.Counter(prefix+"/csb_flush_fails", func() uint64 { return s.CSBFlushFails })
	r.Counter(prefix+"/membars", func() uint64 { return s.Membars })
	r.Counter(prefix+"/traps", func() uint64 { return s.Traps })
	r.Counter(prefix+"/interrupts", func() uint64 { return s.Interrupts })
	r.Counter(prefix+"/faults", func() uint64 { return s.Faults })
}

// State returns a pointer to the committed architectural state. The kernel
// uses it (between Ticks, with the pipeline flushed) for context switches.
func (c *CPU) State() *ArchState { return &c.arch }

// Cycles returns the number of elapsed CPU cycles.
func (c *CPU) Cycles() uint64 { return c.stats.Cycles }

// Interrupt posts an external interrupt; it is taken at the next retire
// boundary if interrupts are enabled.
func (c *CPU) Interrupt(cause uint64) { c.pendingIntr = cause }

// Stall freezes the core for n cycles (models the kernel's context-switch
// cost without simulating kernel code instruction by instruction).
func (c *CPU) Stall(n int) { c.stallCycles += n }

// SaveState copies the committed state; PC is the resume point of the
// interrupted process.
func (c *CPU) SaveState() ArchState { return c.arch }

// RestoreState installs a saved context and redirects fetch, clearing any
// halt (a halted process's exit is the kernel's cue to dispatch another).
func (c *CPU) RestoreState(s ArchState) {
	c.arch = s
	c.pc = s.PC
	c.halted = false
	c.haltErr = nil
	c.pendingIntr = 0
	c.invalidateDecodeCache() // the kernel may have (re)loaded program text
	c.flushAll()
}

// FlushPipeline squashes all in-flight work and restarts fetch at the
// committed PC (used by the kernel after it mutates state directly).
func (c *CPU) FlushPipeline() {
	c.invalidateDecodeCache()
	c.flushAll()
	c.pc = c.arch.PC
}

// Tick advances the core one CPU cycle. Stage order is reverse-pipeline so
// results become visible to younger stages one cycle later. Every cycle is
// charged to exactly one CPI-stack bucket (see stall.go), so the stack's
// buckets always sum to stats.Cycles.
//
//csb:hotpath
func (c *CPU) Tick() {
	c.stats.Cycles++
	if c.halted {
		c.stats.CPI.Add(obs.CauseHalted)
		return
	}
	if c.stallCycles > 0 {
		c.stallCycles--
		c.stats.CPI.Add(obs.CauseKernel)
		return
	}
	c.retiredThisCycle = false
	c.cycleCauseSet = false
	c.retire()
	c.stats.CPI.Add(c.classifyCycle())
	c.recycleRetired()
	if c.halted {
		return
	}
	c.executeAdvance()
	c.issue()
	c.dispatch()
	c.fetch()
}

// SkipHalted stands in for k Tick calls on a halted core: each would
// only count a cycle and charge it to the halted CPI bucket.
func (c *CPU) SkipHalted(k uint64) {
	c.stats.Cycles += k
	c.stats.CPI[obs.CauseHalted] += k
}

// ---- fetch ----

func (c *CPU) fetch() {
	if c.fetchBlocked {
		c.stats.FetchStalls++
		return
	}
	for i := 0; i < c.cfg.FetchWidth && len(c.fetchQ) < c.cfg.FetchQueue; i++ {
		if !c.hier.Present(c.pc, true) {
			if i == 0 {
				c.startICacheFill(c.pc)
			}
			return
		}
		u := c.newUop()
		u.seq = c.nextSeq()
		u.inst = c.decode(c.pc)
		u.opAttrs = opAttrTable[u.inst.Op]
		u.pc = c.pc
		u.fetchC = c.stats.Cycles
		c.predecode(u)
		c.pushFetchQ(u)
		c.stats.Fetched++
		taken := u.predNext != u.pc+4
		c.pc = u.predNext
		if c.fetchBlocked || taken {
			return
		}
	}
}

func (c *CPU) startICacheFill(pc uint64) {
	gen := c.fetchGen
	c.fetchBlocked = true
	c.stats.ICacheStalls++
	_, hit, accepted := c.hier.Load(pc, true, func() {
		if c.fetchGen == gen {
			c.fetchBlocked = false
			c.icacheMiss = false
		}
	})
	if hit || !accepted {
		// hit: racing fill already installed it; !accepted: retry.
		c.fetchBlocked = false
		return
	}
	c.icacheMiss = true
}

// predecode computes the predicted next PC and marks control flow.
func (c *CPU) predecode(u *uop) {
	in := u.inst
	switch in.Op {
	case isa.OpBR:
		u.isBranch = true
		target := u.pc + 4 + uint64(int64(4)*in.Imm)
		taken := in.Cond == isa.CondA || (in.Cond != isa.CondN && c.pred.predict(u.pc))
		if taken {
			u.predNext = target
		} else {
			u.predNext = u.pc + 4
		}
	case isa.OpJAL:
		u.isBranch = true
		u.predNext = u.pc + 4 + uint64(int64(4)*in.Imm)
	case isa.OpJALR:
		u.isBranch = true
		u.predNext = 0 // unknown: fetch stalls until it resolves
		c.fetchBlocked = true
	case isa.OpHALT, isa.OpIRET:
		u.predNext = u.pc // fetch stops; retire redirects if needed
		c.fetchBlocked = true
	default:
		u.predNext = u.pc + 4
	}
}

func (c *CPU) nextSeq() uint64 {
	c.seq++
	return c.seq
}

// ---- dispatch (rename) ----

func (c *CPU) dispatch() {
	for n := 0; n < c.cfg.DispatchWidth && len(c.fetchQ) > 0; n++ {
		u := c.fetchQ[0]
		if len(c.rob) >= c.cfg.ROBSize {
			return
		}
		if u.isBranch && c.branchCount >= c.cfg.MaxBranches {
			return
		}
		if u.isMem && c.memCount >= c.cfg.LSQSize {
			return
		}
		c.fetchQ = c.fetchQ[1:]
		c.rename(u)
		u.dispatchC = c.stats.Cycles
		c.pushROB(u)
		c.wake()
		if u.issuable() {
			c.iq = append(c.iq, u)
		}
		c.stats.Dispatched++
		c.squashRefill = false
		if u.isBranch {
			c.branchCount++
		}
		if u.isMem {
			c.memCount++
		}
	}
}

// rename captures u's sources from the rename maps and registers u as the
// new producer for its destinations. The rename maps are pipeline-owned
// storage for in-flight uops; recycleRetired proves references drain
// before a slot is reused.
//
//csb:pool — the rename maps are pipeline-owned storage for in-flight uops
func (c *CPU) rename(u *uop) {
	in := u.inst
	// Source 1.
	switch {
	case in.Op.FPRs1():
		if p := c.fpRen[in.Rs1]; p != nil {
			u.s1 = p
		} else {
			u.v1 = c.arch.F[in.Rs1]
		}
	case u.ReadsIntRs1():
		if p := c.intRen[in.Rs1]; p != nil {
			u.s1 = p
		} else {
			u.v1 = c.arch.R[in.Rs1]
		}
	}
	// Source 2.
	switch {
	case in.Op.FPRs2():
		if p := c.fpRen[in.Rs2]; p != nil {
			u.s2 = p
		} else {
			u.v2 = c.arch.F[in.Rs2]
		}
	case u.ReadsIntRs2():
		if p := c.intRen[in.Rs2]; p != nil {
			u.s2 = p
		} else {
			u.v2 = c.arch.R[in.Rs2]
		}
	}
	// Store-data source (Rd read as a source).
	if in.ReadsRdAsSource() {
		if in.Op == isa.OpSTF {
			if p := c.fpRen[in.Rd]; p != nil {
				u.sd = p
			} else {
				u.vd = c.arch.F[in.Rd]
			}
		} else {
			if p := c.intRen[in.Rd]; p != nil {
				u.sd = p
			} else {
				u.vd = c.arch.R[in.Rd]
			}
		}
	}
	// Condition codes for conditional branches.
	if in.Op == isa.OpBR && in.Cond != isa.CondA && in.Cond != isa.CondN {
		if c.ccRen != nil {
			u.ccProd = c.ccRen
		} else {
			u.ccVal = c.arch.CC
		}
	}
	// Trivial completions.
	switch in.Op {
	case isa.OpNOP:
		c.markDone(u)
	case isa.OpInvalid:
		u.faulted = true
		c.markDone(u)
	}

	// Register the new producer mappings.
	if u.inst.WritesFPReg() {
		c.fpRen[in.Rd] = u
	} else if u.inst.WritesIntReg() {
		c.intRen[in.Rd] = u
	}
	if u.writesCC {
		c.ccRen = u
	}

	// Branches snapshot the rename state including their own writes.
	if u.isBranch {
		s := c.newSnap()
		s.ints = c.intRen
		s.fps = c.fpRen
		s.cc = c.ccRen
		u.snap = s
	}
}

// markDone completes a uop (its result becomes visible to dependents) and
// stamps the completion cycle for lifecycle tracing.
func (c *CPU) markDone(u *uop) {
	u.done = true
	u.completeC = c.stats.Cycles
	c.wake()
}

// wake records an event the issue walk reads: a uop completing, dying,
// entering the ROB or finishing translation, a cache fill, a ROB head
// retiring, or a cached load refused for full MSHRs. A walk that spends
// no FU, AGU or port budget and drops nothing from iq is blocked only on
// uop and ROB state, so until the next wake it would do nothing again.
func (c *CPU) wake() { c.wakeGen++ }

// ReadsIntRs1 and ReadsIntRs2 forward to the instruction predicates; kept
// as uop methods for symmetry with the FP checks above.
func (u *uop) ReadsIntRs1() bool { return u.inst.ReadsIntRs1() }
func (u *uop) ReadsIntRs2() bool { return u.inst.ReadsIntRs2() }

// ---- issue ----

// issue walks the issue list oldest first, spending this cycle's FU, AGU
// and port budgets exactly as a scan of the whole ROB would: the list
// holds every uop that scan could act on, in the same order, and operand
// readiness is checked at scan time, so a uop that issueMem completes
// mid-walk still unblocks a younger consumer this cycle. The walk
// compacts the list in place, dropping uops issue is finished with.
//
// The walk is skipped while the previous one was idle and nothing has
// woken the core since (see wake). The initial state counts as idle: the
// list starts empty.
func (c *CPU) issue() {
	if c.idleGen == c.wakeGen {
		return
	}
	gen := c.wakeGen
	ints := c.cfg.IntALUs
	fps := c.cfg.FPUs
	agus := c.cfg.AGUs
	ports := c.cfg.MemPorts
	n := 0
	for _, u := range c.iq {
		if u.dead || u.done || u.executing {
			continue
		}
		if u.isMem {
			c.issueMem(u, &agus, &ports)
		} else {
			switch u.class {
			case isa.ClassInt, isa.ClassIntMul, isa.ClassBranch:
				if ints > 0 && u.srcReady() {
					ints--
					c.issueFU(u)
				}
			case isa.ClassFPU:
				if fps > 0 && u.srcReady() {
					fps--
					c.issueFU(u)
				}
			}
		}
		if u.issuable() {
			c.iq[n] = u
			n++
		}
	}
	if n == len(c.iq) && c.wakeGen == gen && ints == c.cfg.IntALUs && fps == c.cfg.FPUs &&
		agus == c.cfg.AGUs && ports == c.cfg.MemPorts {
		c.idleGen = gen
	}
	c.iq = c.iq[:n]
}

// issueFU starts u on a functional unit.
func (c *CPU) issueFU(u *uop) {
	u.issued = true
	u.executing = true
	u.issueC = c.stats.Cycles
	u.remaining = c.latencyFor(u)
	c.exqInsert(u)
}

// issueMem advances a memory uop through agen → translate → (cached loads
// only) cache access. Retire-executed memory ops stop after translation.
func (c *CPU) issueMem(u *uop, agus, ports *int) {
	if !u.agenDone {
		if *agus > 0 && u.addrSrcReady() {
			*agus--
			u.agenDone = true
			u.issueC = c.stats.Cycles
			u.va = u.val1() + uint64(u.inst.Imm)
			c.translate(u)
		}
		return
	}
	if !u.addrReady {
		return // translation walk in progress (executeAdvance counts it down)
	}
	if u.faulted {
		// Wrong-path garbage addresses land here routinely; mark the uop
		// complete so dependents unblock. If it reaches retire alive, the
		// fault is taken there.
		u.result = 0
		c.markDone(u)
		return
	}
	if u.needsRetireExec() {
		return
	}
	switch u.class {
	case isa.ClassLoad: // cached load
		if u.memIssued || u.memWait {
			return
		}
		if *ports <= 0 || !c.orderingSafe(u) {
			return
		}
		*ports--
		c.startCachedLoad(u)
	case isa.ClassStore: // cached store: complete when data is ready
		if u.dataSrcReady() {
			c.markDone(u)
		}
	}
}

// startCachedLoad issues u's cache access. The fill callback's capture
// of u is pin-counted: u.pins keeps the uop off the free list until the
// callback has run (see recycleRetired).
//
//csb:pool — the fill callback's capture of u is pin-counted
func (c *CPU) startCachedLoad(u *uop) {
	u.pins++ // the fill callback captures u; see recycleRetired
	lat, hit, accepted := c.hier.Load(u.pa, false, func() {
		u.pins--
		if !u.dead {
			u.memWait = false
			c.wake()
		}
	})
	if hit || !accepted {
		u.pins-- // callback not retained
	}
	if !accepted {
		c.wake() // MSHRs full; retry next cycle
		return
	}
	if hit {
		u.memIssued = true
		u.executing = true
		u.remaining = lat
		c.exqInsert(u)
		return
	}
	u.memWait = true // fill in progress; re-access on completion
}

// translate resolves u.va via the TLB/page table.
func (c *CPU) translate(u *uop) {
	if c.pt == nil {
		// Bare machine: identity mapping, everything cached.
		u.pa = u.va
		u.kind = mem.KindCached
		u.addrReady = true
		c.wake()
		return
	}
	asid := c.arch.PID()
	if pte, ok := c.tlb.Lookup(u.va, asid); ok {
		c.finishTranslate(u, pte)
		return
	}
	// Hardware walk; a zero-cycle walk completes on the spot.
	if c.cfg.TLBWalkLatency == 0 {
		c.finishWalk(u)
		return
	}
	u.walkStarted = true
	u.translating = c.cfg.TLBWalkLatency
	c.exqInsert(u)
}

func (c *CPU) finishWalk(u *uop) {
	pte, ok := c.pt.Lookup(u.va)
	if !ok {
		u.faulted = true
		u.addrReady = true
		c.wake()
		return
	}
	c.tlb.Insert(u.va, c.arch.PID(), pte)
	c.finishTranslate(u, pte)
}

func (c *CPU) finishTranslate(u *uop, pte mem.PTE) {
	c.wake()
	if u.isStore && !pte.Writable {
		u.faulted = true
		u.addrReady = true
		return
	}
	u.pa = pte.PFN<<mem.PageBits | u.va&(mem.PageSize-1)
	u.kind = pte.Kind
	u.addrReady = true
}

// orderingSafe reports whether a cached load may execute: no older store
// with an unknown or overlapping address, and no older barrier.
func (c *CPU) orderingSafe(u *uop) bool {
	size := uint64(u.memBytes)
	for _, x := range c.rob {
		if x == u {
			return true
		}
		if x.dead {
			continue
		}
		if x.inst.Op == isa.OpMEMBAR {
			return false
		}
		if !x.isStore {
			continue
		}
		if !x.addrReady {
			return false
		}
		xsize := uint64(x.memBytes)
		if x.pa < u.pa+size && u.pa < x.pa+xsize {
			return false
		}
	}
	return true
}

// ---- execute ----

// executeAdvance counts down every walk and FU/cache latency on the
// execute list, oldest first: an older mispredicted branch squashes a
// younger one before it can resolve, and walks insert into the TLB in age
// order. Squashed entries are skipped and, like finished ones, dropped by
// the in-place compaction.
func (c *CPU) executeAdvance() {
	n := 0
	for _, u := range c.exq {
		if u.dead {
			continue
		}
		if u.walkStarted {
			u.translating--
			if u.translating > 0 {
				c.exq[n] = u
				n++
				continue
			}
			u.walkStarted = false
			c.finishWalk(u)
			continue
		}
		u.remaining--
		if u.remaining > 0 {
			c.exq[n] = u
			n++
			continue
		}
		u.executing = false
		c.wake()
		if u.isMem {
			c.completeCachedLoad(u)
			continue
		}
		c.execute(u)
		if u.isBranch {
			c.resolveBranch(u)
		}
	}
	c.exq = c.exq[:n]
}

func (c *CPU) completeCachedLoad(u *uop) {
	u.result = c.ram.ReadUint(u.pa, u.memBytes)
	c.markDone(u)
	c.stats.CachedLoads++
}

func (c *CPU) resolveBranch(u *uop) {
	c.stats.Branches++
	c.branchCount--
	if u.inst.Op == isa.OpBR {
		taken := u.actualNext != u.pc+4
		c.pred.update(u.pc, taken)
	}
	if u.actualNext == u.predNext {
		return
	}
	if u.inst.Op == isa.OpJALR {
		// Not a misprediction: fetch was stalled waiting for the target.
		c.squashAfter(u)
		c.pc = u.actualNext
		c.fetchBlocked = false
		return
	}
	c.stats.Mispredicts++
	c.squashAfter(u)
	c.pc = u.actualNext
	c.fetchBlocked = false
	// ROB-empty cycles until the refetched path reaches dispatch are the
	// squash penalty, not generic frontend starvation.
	c.squashRefill = true
}

// squashAfter kills everything younger than u and restores the rename maps
// from u's snapshot. The work lists keep the dead uops until their next
// pass drops them; both passes run before fetch can reuse a killed slot.
func (c *CPU) squashAfter(u *uop) {
	idx := -1
	for i, x := range c.rob {
		if x == u {
			idx = i
			break
		}
	}
	if idx < 0 {
		return
	}
	for _, x := range c.rob[idx+1:] {
		c.killUop(x)
	}
	c.stats.Squashed += uint64(len(c.rob) - idx - 1 + len(c.fetchQ))
	c.rob = c.rob[:idx+1]
	c.recycleFetchQ()
	c.fetchGen++
	c.icacheMiss = false // a fill for the squashed stream no longer matters
	if u.snap != nil {
		c.intRen = u.snap.ints
		c.fpRen = u.snap.fps
		c.ccRen = u.snap.cc
		// Producers that retired after the snapshot was taken have
		// committed to the architectural file (and their uops may be
		// recycled); scrub them so rename reads the register instead.
		for i, p := range c.intRen {
			if p != nil && p.retired {
				c.intRen[i] = nil
			}
		}
		for i, p := range c.fpRen {
			if p != nil && p.retired {
				c.fpRen[i] = nil
			}
		}
		if c.ccRen != nil && c.ccRen.retired {
			c.ccRen = nil
		}
	}
}

// recycleFetchQ kills and immediately recycles the fetch queue: its uops
// are not yet renamed, so nothing can reference them.
func (c *CPU) recycleFetchQ() {
	for _, x := range c.fetchQ {
		x.dead = true
		c.uopFree = append(c.uopFree, x)
	}
	c.fetchQ = c.fetchQ[:0]
}

// killUop squashes an in-flight uop. Squashed uops become unreachable the
// moment their ROB window is truncated (references only ever point from
// younger to older, and everything younger dies with them), so the slot is
// recycled immediately — unless an outstanding callback still pins it.
//
//csb:pool
func (c *CPU) killUop(x *uop) {
	x.dead = true
	c.wake()
	c.releaseSnap(x)
	if x.isBranch && !x.resolved {
		c.branchCount--
	}
	if x.isMem {
		c.memCount--
	}
	if x.pins == 0 {
		c.uopFree = append(c.uopFree, x)
	}
}

// flushAll empties the entire pipeline (interrupts, IRET, kernel entry).
func (c *CPU) flushAll() {
	for _, x := range c.rob {
		c.killUop(x)
	}
	c.stats.Squashed += uint64(len(c.rob) + len(c.fetchQ))
	c.rob = c.rob[:0]
	c.iq = c.iq[:0]
	c.exq = c.exq[:0]
	c.recycleFetchQ()
	c.intRen = [isa.NumRegs]*uop{}
	c.fpRen = [isa.NumFRegs]*uop{}
	c.ccRen = nil
	c.branchCount = 0
	c.memCount = 0
	c.fetchBlocked = false
	c.fetchGen++
	c.squashRefill = false
	c.icacheMiss = false
}

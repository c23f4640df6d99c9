// Package fix seeds noretain violations around pooled *bus.Txn values:
// every flagged line retains a transaction past the call that delivered
// it, which aliases a recycled object once the pool reuses the slot.
package fix

import "csbsim/internal/bus"

type dev struct {
	last   *bus.Txn
	hist   []*bus.Txn
	byAddr map[uint64]*bus.Txn
}

type rec struct{ t *bus.Txn }

var (
	lastGlobal *bus.Txn
	lastRec    rec
	deferred   []func()
)

func (d *dev) onDone(t *bus.Txn) {
	d.last = t                 // want `pooled \*bus\.Txn "t" stored in a location that outlives the call`
	d.hist = append(d.hist, t) // want `pooled \*bus\.Txn "t" stored`
	d.byAddr[t.Addr] = t       // want `pooled \*bus\.Txn "t" stored`
	lastGlobal = t             // want `pooled \*bus\.Txn "t" stored`
	lastRec = rec{t: t}        // want `pooled \*bus\.Txn "t" stored`
}

func send(ch chan *bus.Txn, t *bus.Txn) {
	ch <- t // want `pooled \*bus\.Txn "t" sent on a channel`
}

func capture(t *bus.Txn) {
	deferred = append(deferred, func() { _ = t.Addr }) // want `closure captures pooled \*bus\.Txn "t"`
}

// inline invokes the literal on the spot, so the capture cannot outlive
// the call.
func inline(t *bus.Txn) uint64 {
	return func() uint64 { return t.Addr }()
}

// copyOut takes what it needs by value, the sanctioned pattern.
func copyOut(t *bus.Txn) (addr uint64, size int) {
	return t.Addr, t.Size
}

func local(t *bus.Txn) {
	u := t
	_ = u
}

type pool struct{ free []*bus.Txn }

func (p *pool) put(t *bus.Txn) {
	p.free = append(p.free, t) //csb:pool
}

// putDoc is sanctioned pool management, annotated at function level.
//
//csb:pool
func (p *pool) putDoc(t *bus.Txn) {
	p.free = append(p.free, t)
}

// pinned models the pin-counted callback captures of the retire stage.
func pinned(t *bus.Txn, register func(func())) {
	//csb:pool — the capture is pin-counted by the caller
	register(func() { _ = t.Addr })
}

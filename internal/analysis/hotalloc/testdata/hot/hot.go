// Package fix seeds hot-path allocation sites: every construct hotalloc
// recognizes appears once in an annotated function, plus the escape
// hatches (alloc-ok lines, panic arguments, unannotated functions).
package fix

type state struct{ n int }

type buf struct {
	backing []int
	s       string
}

var sink any

//csb:hotpath
func hot(b *buf, s *state, bs []byte) {
	p := new(state) // want `new allocates on the hot path`
	_ = p
	m := make([]int, 4) // want `make allocates on the hot path`
	_ = m
	q := &state{n: 1} // want `&composite literal escapes to the heap on the hot path`
	_ = q
	f := func() {} // want `closure allocates on the hot path`
	_ = f
	b.s = b.s + "x"          // want `string concatenation allocates on the hot path`
	_ = string(bs)           // want `string conversion allocates on the hot path`
	xs := append([]int{}, 1) // want `append to a fresh slice allocates on the hot path`
	_ = xs
	b.backing = append(b.backing, s.n) // preallocated backing: no diagnostic
	varf(1, 2)                         // want `variadic function allocates its argument slice`
}

func varf(xs ...int) {}

func eat(v any) {}

//csb:hotpath
func boxing(n int) {
	sink = n // want `assignment boxes a int into an interface`
	eat(n)   // want `argument boxes a int into an interface`
}

//csb:hotpath
func boxReturn(n int) any {
	return n // want `return boxes a int into an interface`
}

//csb:hotpath
func pointerOK(s *state) any {
	return s // pointers live in the interface word: no boxing
}

//csb:hotpath
func coldPath(b *buf) {
	if cap(b.backing) == 0 {
		b.backing = make([]int, 0, 64) //csb:alloc-ok — one-time growth
	}
}

//csb:hotpath
func panicOK(msg string) {
	if msg == "" {
		panic("empty: " + msg)
	}
}

func notAnnotated() *state {
	return &state{n: 1}
}

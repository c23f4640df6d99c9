package cpu

import (
	"fmt"
	"testing"

	"csbsim/internal/asm"
	"csbsim/internal/mem"
)

// instWord assembles one instruction and returns its encoded word.
func instWord(t *testing.T, src string) uint64 {
	t.Helper()
	p, err := asm.Assemble("word.s", src+"\n")
	if err != nil {
		t.Fatal(err)
	}
	_, data, err := p.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	return uint64(mem.ByteOrder.Uint32(data))
}

// Two functions decCacheSize instructions apart share every decode-cache
// slot. Calling them alternately must still execute each one's own code,
// and a store over either one's text must invalidate the slot so the
// next call runs the new instruction.
func TestDecodeCacheAliasing(t *testing.T) {
	const fa = 0x2000
	const fb = fa + decCacheSize*4
	if (fa>>2)&decCacheMask != (fb>>2)&decCacheMask {
		t.Fatal("fa and fb do not share a decode-cache slot")
	}
	// delay runs long enough (3 x 100 instructions, well past ROB and
	// fetch-queue depth) that the preceding store has retired before
	// the following call is fetched.
	delay := func(label string) string {
		return fmt.Sprintf("\tmov 0, %%g7\n%[1]s:\tadd %%g7, 1, %%g7\n\tcmp %%g7, 100\n\tbl %[1]s\n", label)
	}
	r := newRig(t)
	r.load(t, fmt.Sprintf(`
	.entry main
main:
	mov 0, %%g3
loop:	set %[1]d, %%g4
	jalr %%g4, 0, %%o7
	set %[2]d, %%g4
	jalr %%g4, 0, %%o7
	add %%g3, 1, %%g3
	cmp %%g3, 20
	bl loop
	set %[2]d, %%g5         ! the slot now holds fb: rewrite it
	set %[3]d, %%g6
	stw %%g6, [%%g5]
%[5]s
	set %[2]d, %%g4
	jalr %%g4, 0, %%o7      ! g2 += 100
	set %[1]d, %%g4
	jalr %%g4, 0, %%o7      ! g1 += 1; the slot now holds fa: rewrite it
	set %[1]d, %%g5
	set %[4]d, %%g6
	stw %%g6, [%%g5]
%[6]s
	set %[1]d, %%g4
	jalr %%g4, 0, %%o7      ! g1 += 10
	set %[2]d, %%g4
	jalr %%g4, 0, %%o7      ! g2 += 100
	halt
	.org %[1]d
	add %%g1, 1, %%g1
	jalr %%o7, 0, %%g0
	.org %[2]d
	add %%g2, 3, %%g2
	jalr %%o7, 0, %%g0
`, fa, fb, instWord(t, "add %g2, 100, %g2"), instWord(t, "add %g1, 10, %g1"), delay("wait1"), delay("wait2")))
	r.run(t, 1_000_000)
	st := r.c.State()
	if got, want := st.R[1], uint64(20+1+10); got != want {
		t.Errorf("g1 = %d, want %d", got, want)
	}
	if got, want := st.R[2], uint64(20*3+100+100); got != want {
		t.Errorf("g2 = %d, want %d", got, want)
	}
}

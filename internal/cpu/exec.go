package cpu

import (
	"math"

	"csbsim/internal/isa"
)

// ccWriters marks opcodes that update the integer condition codes.
func writesCC(op isa.Op) bool {
	switch op {
	case isa.OpADDCC, isa.OpSUBCC, isa.OpANDCC, isa.OpORCC,
		isa.OpADDCCI, isa.OpSUBCCI, isa.OpANDCCI, isa.OpORCCI, isa.OpFCMP:
		return true
	}
	return false
}

// latencyFor returns the execution latency of functional-unit uop u.
func (c *CPU) latencyFor(u *uop) int {
	switch u.class {
	case isa.ClassIntMul:
		return c.cfg.MulLatency
	case isa.ClassFPU:
		if u.inst.Op == isa.OpFDIV {
			return c.cfg.FPDivLatency
		}
		return c.cfg.FPLatency
	default:
		return c.cfg.IntLatency
	}
}

// execute computes a functional-unit uop's result, flags and branch
// outcome from its (ready) operands.
func (c *CPU) execute(u *uop) {
	in := u.inst
	a := u.val1()
	b := u.val2()
	if in.Op.HasImm() {
		b = uint64(in.Imm)
	}
	switch in.Op {
	case isa.OpADD, isa.OpADDI:
		u.result = a + b
	case isa.OpSUB, isa.OpSUBI:
		u.result = a - b
	case isa.OpAND, isa.OpANDI:
		u.result = a & b
	case isa.OpOR, isa.OpORI:
		u.result = a | b
	case isa.OpXOR, isa.OpXORI:
		u.result = a ^ b
	case isa.OpSLL, isa.OpSLLI:
		u.result = a << (b & 63)
	case isa.OpSRL, isa.OpSRLI:
		u.result = a >> (b & 63)
	case isa.OpSRA, isa.OpSRAI:
		u.result = uint64(int64(a) >> (b & 63))
	case isa.OpMUL, isa.OpMULI:
		u.result = a * b

	case isa.OpADDCC, isa.OpADDCCI:
		u.result = a + b
		u.flags = isa.FlagsFromAdd(a, b, u.result)
	case isa.OpSUBCC, isa.OpSUBCCI:
		u.result = a - b
		u.flags = isa.FlagsFromSub(a, b, u.result)
	case isa.OpANDCC, isa.OpANDCCI:
		u.result = a & b
		u.flags = isa.FlagsFromLogic(u.result)
	case isa.OpORCC, isa.OpORCCI:
		u.result = a | b
		u.flags = isa.FlagsFromLogic(u.result)

	case isa.OpLUI:
		u.result = uint64(in.Imm) << 13

	case isa.OpBR:
		taken := in.Cond.Eval(u.cc())
		if taken {
			u.actualNext = u.pc + 4 + uint64(int64(4)*in.Imm)
		} else {
			u.actualNext = u.pc + 4
		}
		u.resolved = true
	case isa.OpJAL:
		u.result = u.pc + 4
		u.actualNext = u.pc + 4 + uint64(int64(4)*in.Imm)
		u.resolved = true
	case isa.OpJALR:
		u.result = u.pc + 4
		u.actualNext = (a + uint64(in.Imm)) &^ 3
		u.resolved = true

	case isa.OpFADD:
		u.result = math.Float64bits(math.Float64frombits(a) + math.Float64frombits(b))
	case isa.OpFSUB:
		u.result = math.Float64bits(math.Float64frombits(a) - math.Float64frombits(b))
	case isa.OpFMUL:
		u.result = math.Float64bits(math.Float64frombits(a) * math.Float64frombits(b))
	case isa.OpFDIV:
		u.result = math.Float64bits(math.Float64frombits(a) / math.Float64frombits(b))
	case isa.OpFMOV, isa.OpMOVR2F, isa.OpMOVF2R:
		u.result = a
	case isa.OpFNEG:
		u.result = math.Float64bits(-math.Float64frombits(a))
	case isa.OpFITOD:
		u.result = math.Float64bits(float64(int64(a)))
	case isa.OpFDTOI:
		u.result = uint64(int64(math.Float64frombits(a)))
	case isa.OpFCMP:
		x, y := math.Float64frombits(a), math.Float64frombits(u.val2())
		u.flags = isa.Flags{Z: x == y, N: x < y}

	case isa.OpNOP:
		// nothing
	}
	c.markDone(u)
}

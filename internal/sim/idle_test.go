package sim

import (
	"bytes"
	"encoding/json"
	"slices"
	"testing"

	"csbsim/internal/bus"
	"csbsim/internal/device"
	"csbsim/internal/fault"
	"csbsim/internal/mem"
	"csbsim/internal/obs"
	"csbsim/internal/obs/journey"
)

// idleSendSrc pushes one transmit descriptor with an uncached store, then
// halts: the NIC sends a packet (a traced journey) and the machine
// settles.
const idleSendSrc = `
	.equ NICREG, 0x40000000
	set NICREG, %o0
	set 64, %g4
	sll %g4, 48, %g4
	stx %g4, [%o0]
	membar
	halt
`

// idleMachine builds a NIC machine at the given clock ratio with counters,
// journeys and a periodic hook (recording its firing cycles into *fired)
// attached, runs idleSendSrc to a halt, drains it, then ticks phase more
// cycles to set the bus countdown's starting phase.
func idleMachine(t *testing.T, ratio int, every uint64, phase int, fired *[]uint64) (*Machine, *device.NIC) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Ratio = ratio
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	nic := device.NewNIC(device.DefaultConfig(), nicBase)
	if err := m.AddDevice(nicBase, device.RegionSize, "nic", nic, nic); err != nil {
		t.Fatal(err)
	}
	m.MapRange(nicBase, device.RegionSize, mem.KindUncached)
	if _, err := m.AttachJourneys(journey.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	if err := m.AttachPeriodic(every, func(c uint64) { *fired = append(*fired, c) }); err != nil {
		t.Fatal(err)
	}
	if _, err := m.LoadSource("send.s", idleSendSrc); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(100_000); err != nil {
		t.Fatal(err)
	}
	if err := m.Drain(100_000); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < phase; i++ {
		m.Tick()
	}
	return m, nic
}

// statsJSON renders the machine's Stats and its counter-registry
// snapshot.
func statsJSON(t *testing.T, m *Machine) ([]byte, []byte) {
	t.Helper()
	st, err := json.Marshal(m.Stats())
	if err != nil {
		t.Fatal(err)
	}
	snap, err := json.Marshal(m.Counters().Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	return st, snap
}

// TestSkipIdleMatchesTicks: on a halted, settled machine, advancing k
// cycles with IdleSpan-capped SkipIdle calls (a Tick whenever the cap is
// 0, which is how a periodic hook gets to fire) leaves exactly the state
// k Tick calls leave — Stats JSON, the counter registry, the periodic
// hook's firing cycles — and the NIC stamps a descriptor pushed
// afterwards with the same bus cycle.
func TestSkipIdleMatchesTicks(t *testing.T) {
	prng := fault.NewPRNG(7)
	for trial := 0; trial < 60; trial++ {
		ratio := []int{1, 2, 3, 6, 7}[trial%5]
		k := uint64(1 + prng.Intn(5000))
		every := uint64(1 + prng.Intn(3000))
		phase := prng.Intn(ratio)
		var firedSkip, firedTick []uint64
		a, nicA := idleMachine(t, ratio, every, phase, &firedSkip)
		b, nicB := idleMachine(t, ratio, every, phase, &firedTick)
		firedSkip, firedTick = firedSkip[:0], firedTick[:0]

		skips := 0
		for left := k; left > 0; {
			if s := min(left, a.IdleSpan()); s > 0 {
				a.SkipIdle(s)
				left -= s
				skips++
			} else {
				a.Tick()
				left--
			}
		}
		for i := uint64(0); i < k; i++ {
			b.Tick()
		}
		if every > 1 && k >= 2*every && skips == 0 {
			t.Fatalf("trial %d: IdleSpan never allowed a skip", trial)
		}
		sa, ca := statsJSON(t, a)
		sb, cb := statsJSON(t, b)
		if !bytes.Equal(sa, sb) {
			t.Fatalf("trial %d (ratio %d, k %d, phase %d): Stats differ\nskip %s\ntick %s", trial, ratio, k, phase, sa, sb)
		}
		if !bytes.Equal(ca, cb) {
			t.Fatalf("trial %d: counter snapshots differ\nskip %s\ntick %s", trial, ca, cb)
		}
		if !slices.Equal(firedSkip, firedTick) {
			t.Fatalf("trial %d: periodic hook fired at %v with skips, %v with ticks", trial, firedSkip, firedTick)
		}
		if got := a.Stats().CPU.CPI[obs.CauseHalted]; got < k {
			t.Fatalf("trial %d: halted bucket %d < %d skipped-or-ticked cycles", trial, got, k)
		}

		// The NIC stamps a push with its last-ticked bus cycle, which after
		// at least one bus tick is the current one.
		desc := make([]byte, 8)
		desc[6] = 64 // length 64 in bits [63:48]
		pushAt := a.Bus.Cycle()
		for _, m := range []struct {
			m   *Machine
			nic *device.NIC
		}{{a, nicA}, {b, nicB}} {
			m.nic.WriteTarget(nicBase+device.RegTxFIFO, desc)
			if err := m.m.Drain(100_000); err != nil {
				t.Fatal(err)
			}
		}
		pa, pb := nicA.Packets(), nicB.Packets()
		if len(pa) != 2 || len(pb) != 2 || pa[1].FIFOPush != pb[1].FIFOPush || pa[1].SentAt != pb[1].SentAt {
			t.Fatalf("trial %d: pushed-descriptor stamps differ: skip %+v, tick %+v", trial, pa, pb)
		}
		if k >= uint64(ratio) && pa[1].FIFOPush != pushAt {
			t.Fatalf("trial %d: push stamped at bus cycle %d, want %d", trial, pa[1].FIFOPush, pushAt)
		}
		sa, _ = statsJSON(t, a)
		sb, _ = statsJSON(t, b)
		if !bytes.Equal(sa, sb) {
			t.Fatalf("trial %d: Stats differ after the second send\nskip %s\ntick %s", trial, sa, sb)
		}
	}
}

// plainDevice is a bus agent without the idle-skip accessors.
type plainDevice struct{}

func (plainDevice) TickBus(*bus.Bus) {}
func (plainDevice) Idle() bool       { return true }

// TestIdleSpanBlockers: IdleSpan is 0 on a machine whose core still runs,
// whose NIC has a descriptor queued, that samples metrics per cycle, whose
// NIC carries fault hooks, or that has a device without the idle-skip
// accessors.
func TestIdleSpanBlockers(t *testing.T) {
	m, nic := machineWithNIC(t)
	if _, err := m.LoadSource("send.s", idleSendSrc); err != nil {
		t.Fatal(err)
	}
	if got := m.IdleSpan(); got != 0 {
		t.Fatalf("running core: IdleSpan = %d", got)
	}
	if err := m.Run(100_000); err != nil {
		t.Fatal(err)
	}
	if err := m.Drain(100_000); err != nil {
		t.Fatal(err)
	}
	if got := m.IdleSpan(); got == 0 {
		t.Fatal("halted and settled: IdleSpan = 0")
	}
	nic.WriteTarget(nicBase+device.RegTxFIFO, []byte{0, 0, 0, 0, 0, 0, 64, 0})
	if got := m.IdleSpan(); got != 0 {
		t.Fatalf("halted with a descriptor queued: IdleSpan = %d", got)
	}

	for _, tc := range []struct {
		name   string
		attach func(*Machine) error
	}{
		{"metrics", func(m *Machine) error {
			return m.AttachMetrics(obs.NewMetricsWriter(&bytes.Buffer{}, obs.FormatJSONL), 100)
		}},
		{"faults", func(m *Machine) error {
			_, err := m.AttachFaults(fault.Config{Seed: 1, DeviceStall: 1024, DeviceStallMax: 1})
			return err
		}},
		{"plain-device", func(m *Machine) error {
			return m.AddDevice(0x5000_0000, device.RegionSize, "plain",
				device.NewNIC(device.DefaultConfig(), 0x5000_0000), plainDevice{})
		}},
	} {
		m, _ := machineWithNIC(t)
		if _, err := m.LoadSource("halt.s", "halt\n"); err != nil {
			t.Fatal(err)
		}
		if err := tc.attach(m); err != nil {
			t.Fatal(err)
		}
		if err := m.Run(100_000); err != nil {
			t.Fatal(err)
		}
		if err := m.Drain(100_000); err != nil {
			t.Fatal(err)
		}
		if got := m.IdleSpan(); got != 0 {
			t.Errorf("%s: IdleSpan = %d, want 0", tc.name, got)
		}
	}
}

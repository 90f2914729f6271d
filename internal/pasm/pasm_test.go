package pasm

import (
	"strings"
	"testing"

	"repro/internal/m68k"
)

func newTestVM(t *testing.T, p int, mut func(*Config)) *VM {
	t.Helper()
	cfg := DefaultConfig()
	cfg.PEMemBytes = 1 << 16
	if mut != nil {
		mut(&cfg)
	}
	vm, err := NewVM(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	if err := vm.EstablishShift(); err != nil {
		t.Fatal(err)
	}
	return vm
}

func TestNewVMValidation(t *testing.T) {
	cfg := DefaultConfig()
	if _, err := NewVM(cfg, 3); err == nil {
		t.Error("partition size 3 accepted")
	}
	if _, err := NewVM(cfg, 32); err == nil {
		t.Error("partition larger than machine accepted")
	}
	bad := cfg
	bad.QueueDepthWords = 1
	if _, err := NewVM(bad, 4); err == nil {
		t.Error("tiny queue accepted")
	}
	vm, err := NewVM(cfg, 8)
	if err != nil {
		t.Fatal(err)
	}
	if vm.Q != 2 || len(vm.MCs) != 2 || len(vm.MCs[0].PEs) != 4 {
		t.Errorf("partition shape: Q=%d", vm.Q)
	}
}

func TestMIMDIndependentCompute(t *testing.T) {
	vm := newTestVM(t, 4, nil)
	prog := m68k.MustAssemble(`
		move.w  $100, d0
		mulu.w  d0, d0
		move.w  d0, $102
		halt
	`)
	for i, pe := range vm.PEs {
		if err := pe.Mem.WriteWords(0x100, []uint16{uint16(i + 2)}); err != nil {
			t.Fatal(err)
		}
	}
	res, err := vm.RunMIMD(prog)
	if err != nil {
		t.Fatal(err)
	}
	for i, pe := range vm.PEs {
		v, _ := pe.Mem.Read(0x102, m68k.Word)
		want := uint32((i + 2) * (i + 2))
		if v != want {
			t.Errorf("PE %d: got %d, want %d", i, v, want)
		}
	}
	if res.Cycles == 0 || res.Instrs != 4*4 {
		t.Errorf("res = %+v", res)
	}
}

const ringMIMD = `
	; each PE sends the low byte of mem[$100] to PE (i-1) mod p with
	; polling, receives from PE (i+1) mod p, stores to mem[$102].
	movea.l #$F10000, a0    ; xmit
	movea.l #$F10002, a1    ; recv
	movea.l #$F10004, a2    ; tx ready
	movea.l #$F10006, a3    ; rx valid
	move.w  $100, d0
txw:	tst.w   (a2)
	beq     txw
	move.b  d0, (a0)
rxw:	tst.w   (a3)
	beq     rxw
	move.b  (a1), d1
	move.w  d1, $102
	halt
`

func TestMIMDNetworkRing(t *testing.T) {
	for _, p := range []int{2, 4, 8, 16} {
		vm := newTestVM(t, p, nil)
		prog := m68k.MustAssemble(ringMIMD)
		for i, pe := range vm.PEs {
			pe.Mem.WriteWords(0x100, []uint16{uint16(10 + i)})
		}
		res, err := vm.RunMIMD(prog)
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		for i, pe := range vm.PEs {
			v, _ := pe.Mem.Read(0x102, m68k.Word)
			want := uint32(10 + (i+1)%p)
			if v != want {
				t.Errorf("p=%d PE %d: received %d, want %d", p, i, v, want)
			}
		}
		if res.NetTransfers != int64(p) {
			t.Errorf("p=%d: transfers = %d, want %d", p, res.NetTransfers, p)
		}
	}
}

const ringSMIMD = `
	; S/MIMD: barrier-synchronized transfer, no polling.
	movea.l #$F10000, a0    ; xmit
	movea.l #$F10002, a1    ; recv
	movea.l #$F00000, a4    ; SIMD space: barrier
	move.w  $100, d0
	move.w  (a4), d7        ; barrier: everyone ready to transfer
	move.b  d0, (a0)
	move.w  (a4), d7        ; barrier: all data in flight
	move.b  (a1), d1
	move.w  d1, $102
	halt
`

func TestSMIMDBarrierRing(t *testing.T) {
	for _, p := range []int{2, 4, 16} {
		vm := newTestVM(t, p, nil)
		prog := m68k.MustAssemble(ringSMIMD)
		for i, pe := range vm.PEs {
			pe.Mem.WriteWords(0x100, []uint16{uint16(40 + i)})
		}
		res, err := vm.RunMIMD(prog)
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		for i, pe := range vm.PEs {
			v, _ := pe.Mem.Read(0x102, m68k.Word)
			want := uint32(40 + (i+1)%p)
			if v != want {
				t.Errorf("p=%d PE %d: received %d, want %d", p, i, v, want)
			}
		}
		if res.BarrierRounds != 2 {
			t.Errorf("p=%d: barrier rounds = %d, want 2", p, res.BarrierRounds)
		}
	}
}

func TestBarrierEqualizesSkew(t *testing.T) {
	// PEs do different amounts of work, then meet at a barrier; every
	// PE's completion must be at least the slowest PE's pre-barrier
	// time.
	vm := newTestVM(t, 4, nil)
	prog := m68k.MustAssemble(`
		movea.l #$F00000, a4
		move.w  $100, d0       ; per-PE loop count
spin:	dbra    d0, spin
		move.w  (a4), d7       ; barrier
		halt
	`)
	counts := []uint16{10, 5000, 100, 900}
	for i, pe := range vm.PEs {
		pe.Mem.WriteWords(0x100, []uint16{counts[i]})
	}
	res, err := vm.RunMIMD(prog)
	if err != nil {
		t.Fatal(err)
	}
	slowest := res.PEClocks[1] // count 5000
	for i, c := range res.PEClocks {
		if c < slowest-100 {
			t.Errorf("PE %d finished at %d, before the slowest PE's barrier arrival %d", i, c, slowest)
		}
	}
	if res.BarrierRounds != 1 {
		t.Errorf("rounds = %d", res.BarrierRounds)
	}
}

const simdSum = `
	; MC program: 10 iterations of a broadcast add, then store.
	moveq   #9, d3
	bcast   init
mcloop:	bcast   body
	dbra    d3, mcloop
	bcast   fini
	halt
	.block  init
	clr.w   d0
	move.w  $100, d1
	.endblock
	.block  body
	add.w   d1, d0
	.endblock
	.block  fini
	move.w  d0, $200
	.endblock
`

func TestSIMDBroadcastLoop(t *testing.T) {
	for _, p := range []int{4, 8, 16} {
		vm := newTestVM(t, p, nil)
		prog := m68k.MustAssemble(simdSum)
		for i, pe := range vm.PEs {
			pe.Mem.WriteWords(0x100, []uint16{uint16(i + 1)})
		}
		res, err := vm.RunSIMD(prog)
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		for i, pe := range vm.PEs {
			v, _ := pe.Mem.Read(0x200, m68k.Word)
			if v != uint32(10*(i+1)) {
				t.Errorf("p=%d PE %d: sum = %d, want %d", p, i, v, 10*(i+1))
			}
		}
		if res.MCInstrs == 0 || res.QueueMaxOccupancy == 0 {
			t.Errorf("p=%d: MC activity missing: %+v", p, res)
		}
	}
}

func TestSIMDLockstepChargesWorstCase(t *testing.T) {
	// Two PEs multiply by operands with very different bit counts; in
	// lockstep both PEs must finish every instruction together, so the
	// clocks are identical and reflect the slow operand.
	vm := newTestVM(t, 2, nil)
	prog := m68k.MustAssemble(`
		bcast   work
		halt
		.block  work
		move.w  $100, d1
		mulu.w  d1, d0
		mulu.w  d1, d0
		mulu.w  d1, d0
		move.w  d0, $200
		.endblock
	`)
	vm.PEs[0].Mem.WriteWords(0x100, []uint16{0x0000}) // 38-cycle multiplies
	vm.PEs[1].Mem.WriteWords(0x100, []uint16{0xFFFF}) // 70-cycle multiplies
	res, err := vm.RunSIMD(prog)
	if err != nil {
		t.Fatal(err)
	}
	if res.PEClocks[0] != res.PEClocks[1] {
		t.Errorf("lockstep clocks differ: %v", res.PEClocks)
	}

	// The same program on one PE with the fast operand must be faster
	// than the lockstep pair (which pays the 0xFFFF multiplies).
	solo := newTestVM(t, 1, nil)
	solo.PEs[0].Mem.WriteWords(0x100, []uint16{0x0000})
	fast, err := solo.RunSIMD(m68k.MustAssemble(`
		bcast   work
		halt
		.block  work
		move.w  $100, d1
		mulu.w  d1, d0
		mulu.w  d1, d0
		mulu.w  d1, d0
		move.w  d0, $200
		.endblock
	`))
	if err != nil {
		t.Fatal(err)
	}
	if fast.Cycles >= res.Cycles {
		t.Errorf("worst-case charging missing: solo %d !< lockstep %d", fast.Cycles, res.Cycles)
	}
}

func TestMIMDDecouplesInstructionTimes(t *testing.T) {
	// The paper's central effect: in MIMD each PE pays its own
	// multiply times and the maximum is taken once over the whole
	// program, so mixed-operand multiplies finish sooner than in
	// lockstep SIMD, where every instruction costs the maximum.
	simdProg := `
		moveq   #99, d3
		bcast   init
l:	bcast   body
	dbra    d3, l
	halt
	.block  init
	move.w  $100, d1
	move.w  $102, d2
	.endblock
	.block  body
	mulu.w  d1, d0
	mulu.w  d2, d0
	.endblock
	`
	mimdProg := `
	move.w  $100, d1
	move.w  $102, d2
	moveq   #99, d3
l:	mulu.w  d1, d0
	mulu.w  d2, d0
	dbra    d3, l
	halt
	`
	// PE0 has slow first operand and fast second; PE1 the reverse. In
	// SIMD every instruction costs 70 cycles of multiply time; in MIMD
	// each PE pays 70+38 per iteration.
	load := func(vm *VM) {
		vm.PEs[0].Mem.WriteWords(0x100, []uint16{0xFFFF, 0x0000})
		vm.PEs[1].Mem.WriteWords(0x100, []uint16{0x0000, 0xFFFF})
	}
	vm := newTestVM(t, 2, nil)
	load(vm)
	simd, err := vm.RunSIMD(m68k.MustAssemble(simdProg))
	if err != nil {
		t.Fatal(err)
	}
	vm2 := newTestVM(t, 2, nil)
	load(vm2)
	mimd, err := vm2.RunMIMD(m68k.MustAssemble(mimdProg))
	if err != nil {
		t.Fatal(err)
	}
	// SIMD multiply cost per iteration: 2 * 70; MIMD: 70 + 38. Over
	// 100 iterations SIMD pays about 3200 extra multiply cycles, which
	// must dominate the DBRA-overlap advantage SIMD gets.
	if mimd.Cycles >= simd.Cycles {
		t.Errorf("decoupling benefit missing: MIMD %d !< SIMD %d", mimd.Cycles, simd.Cycles)
	}
}

func TestSIMDControlFlowOverlap(t *testing.T) {
	// With equal per-PE work, SIMD must beat MIMD because the MC
	// executes the loop control in parallel and the queue fetch has no
	// wait states.
	simdProg := `
		moveq   #99, d3
l:	bcast   body
	dbra    d3, l
	halt
	.block  body
	add.w   d1, d0
	add.w   d1, d0
	add.w   d1, d0
	.endblock
	`
	mimdProg := `
	moveq   #99, d3
l:	add.w   d1, d0
	add.w   d1, d0
	add.w   d1, d0
	dbra    d3, l
	halt
	`
	vm := newTestVM(t, 4, nil)
	simd, err := vm.RunSIMD(m68k.MustAssemble(simdProg))
	if err != nil {
		t.Fatal(err)
	}
	vm2 := newTestVM(t, 4, nil)
	mimd, err := vm2.RunMIMD(m68k.MustAssemble(mimdProg))
	if err != nil {
		t.Fatal(err)
	}
	if simd.Cycles >= mimd.Cycles {
		t.Errorf("control-flow overlap missing: SIMD %d !< MIMD %d", simd.Cycles, mimd.Cycles)
	}
}

func TestSIMDSmallQueueBackpressure(t *testing.T) {
	// A tiny queue must still produce correct results, just slower,
	// and never exceed its capacity.
	run := func(depth int) (RunResult, *VM) {
		vm := newTestVM(t, 4, func(c *Config) { c.QueueDepthWords = depth })
		prog := m68k.MustAssemble(simdSum)
		for i, pe := range vm.PEs {
			pe.Mem.WriteWords(0x100, []uint16{uint16(i + 1)})
		}
		res, err := vm.RunSIMD(prog)
		if err != nil {
			t.Fatalf("depth %d: %v", depth, err)
		}
		return res, vm
	}
	small, vmS := run(4)
	big, _ := run(1024)
	for i, pe := range vmS.PEs {
		v, _ := pe.Mem.Read(0x200, m68k.Word)
		if v != uint32(10*(i+1)) {
			t.Errorf("small queue: PE %d sum = %d", i, v)
		}
	}
	if small.QueueMaxOccupancy > 4 {
		t.Errorf("occupancy %d exceeds depth 4", small.QueueMaxOccupancy)
	}
	if small.Cycles < big.Cycles {
		t.Errorf("small queue faster than big queue: %d < %d", small.Cycles, big.Cycles)
	}
}

func TestSIMDNetworkTransfer(t *testing.T) {
	// Lockstep network transfer: alternating send/recv, no polling,
	// implicit synchronization.
	vm := newTestVM(t, 4, nil)
	prog := m68k.MustAssemble(`
		bcast   xfer
		halt
		.block  xfer
		movea.l #$F10000, a0
		movea.l #$F10002, a1
		move.w  $100, d0
		move.b  d0, (a0)
		move.b  (a1), d1
		move.w  d1, $102
		.endblock
	`)
	for i, pe := range vm.PEs {
		pe.Mem.WriteWords(0x100, []uint16{uint16(70 + i)})
	}
	res, err := vm.RunSIMD(prog)
	if err != nil {
		t.Fatal(err)
	}
	for i, pe := range vm.PEs {
		v, _ := pe.Mem.Read(0x102, m68k.Word)
		want := uint32(70 + (i+1)%4)
		if v != want {
			t.Errorf("PE %d received %d, want %d", i, v, want)
		}
	}
	if res.NetTransfers != 4 {
		t.Errorf("transfers = %d", res.NetTransfers)
	}
}

func TestMIMDDeadlockDetected(t *testing.T) {
	// Everyone receives, nobody sends.
	vm := newTestVM(t, 2, nil)
	prog := m68k.MustAssemble(`
		movea.l #$F10002, a1
		move.b  (a1), d0
		halt
	`)
	_, err := vm.RunMIMD(prog)
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Errorf("err = %v, want deadlock", err)
	}
}

func TestMIMDProgramErrorPropagates(t *testing.T) {
	vm := newTestVM(t, 2, nil)
	prog := m68k.MustAssemble(`
		moveq   #0, d1
		divu.w  d1, d0
		halt
	`)
	if _, err := vm.RunMIMD(prog); err == nil {
		t.Error("divide-by-zero not reported")
	}
}

// tierConfigs are the interpreter tiers the step-budget tests cover.
var tierConfigs = map[string]func(*Config){
	"reference": func(c *Config) { c.DisableExecTable = true },
	"table":     func(c *Config) { c.DisableSuperinstructions = true },
	"super":     func(*Config) {},
}

// TestMIMDStepBudgetIsPerPE pins Config.MaxSteps as a bound on each
// PE's own instruction count: many short barrier-separated segments
// must not exhaust it however small each segment is.
func TestMIMDStepBudgetIsPerPE(t *testing.T) {
	prog := m68k.MustAssemble(`
		movea.l #$F00000, a4
		moveq   #39, d0
	l:	move.w  (a4), d7        ; barrier
		dbra    d0, l
		halt
	`)
	for name, tier := range tierConfigs {
		vm := newTestVM(t, 4, func(c *Config) {
			tier(c)
			c.MaxSteps = 1 << 20
		})
		res, err := vm.RunMIMD(prog)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.BarrierRounds != 40 {
			t.Errorf("%s: barrier rounds = %d, want 40", name, res.BarrierRounds)
		}
	}
}

// TestMIMDRunawayExceedsSteps checks that the budget still stops a PE
// that never reaches a device operation, and one spinning between
// barriers.
func TestMIMDRunawayExceedsSteps(t *testing.T) {
	progs := map[string]string{
		"spin": `
	l:	bra     l
		`,
		"barrier": `
		movea.l #$F00000, a4
	l:	move.w  (a4), d7
		bra     l
		`,
	}
	for pname, src := range progs {
		for name, tier := range tierConfigs {
			vm := newTestVM(t, 4, func(c *Config) {
				tier(c)
				c.MaxSteps = 1 << 12
			})
			_, err := vm.RunMIMD(m68k.MustAssemble(src))
			if err == nil || !strings.Contains(err.Error(), "exceeded 4096 steps") {
				t.Errorf("%s/%s: err = %v, want step budget exceeded", pname, name, err)
			}
		}
	}
}

func TestSIMDRejectsControlFlowInBlock(t *testing.T) {
	vm := newTestVM(t, 2, nil)
	prog := m68k.MustAssemble(`
		bcast   bad
		halt
		.block  bad
x:	add.w   d0, d1
	bra     x
	.endblock
	`)
	if _, err := vm.RunSIMD(prog); err == nil {
		t.Error("branch inside broadcast block accepted")
	}
}

func TestRegionsCoverClock(t *testing.T) {
	vm := newTestVM(t, 4, nil)
	prog := m68k.MustAssemble(ringSMIMD)
	for i, pe := range vm.PEs {
		pe.Mem.WriteWords(0x100, []uint16{uint16(i)})
	}
	res, err := vm.RunMIMD(prog)
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, v := range res.Regions {
		sum += v
	}
	if sum != res.Cycles {
		t.Errorf("region sum %d != critical clock %d", sum, res.Cycles)
	}
}

func TestRunResultSeconds(t *testing.T) {
	cfg := DefaultConfig()
	r := RunResult{Cycles: 8_000_000}
	if s := r.Seconds(cfg); s != 1.0 {
		t.Errorf("Seconds = %v, want 1.0", s)
	}
}

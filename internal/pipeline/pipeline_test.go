package pipeline

import (
	"testing"

	"clgp/internal/cacti"
	"clgp/internal/isa"
	"clgp/internal/memory"
)

func alu(pc isa.Addr, src1, src2, dst uint8) *isa.StaticInst {
	return &isa.StaticInst{PC: pc, Class: isa.OpALU, Src1: src1, Src2: src2, Dst: dst}
}

// fetch appends si as b's next fetched instruction and returns it, so the
// caller can set its fields before Dispatch.
func fetch(b *Backend, si *isa.StaticInst, seq uint64) *DynInst {
	d := b.FetchSlot()
	d.SetStatic(si)
	d.Seq = seq
	return d
}

// dispatch fetches si and dispatches it at cycle now.
func dispatch(b *Backend, si *isa.StaticInst, seq, now uint64) bool {
	fetch(b, si, seq)
	return b.Dispatch(now)
}

// tick runs one TickInto and returns copies of the committed instructions.
func tick(b *Backend, now uint64) (committed []DynInst, resolved bool) {
	n, resolved := b.TickInto(now)
	for i := 0; i < n; i++ {
		committed = append(committed, *b.CommittedAt(i))
	}
	return committed, resolved
}

// run ticks the backend until all dispatched instructions commit or maxCycles
// is reached, returning the cycle after the last commit.
func runUntilDrained(t *testing.T, b *Backend, start uint64, maxCycles int) uint64 {
	t.Helper()
	now := start
	for i := 0; i < maxCycles; i++ {
		b.TickInto(now)
		if b.Drained() {
			return now
		}
		now++
	}
	t.Fatalf("backend did not drain within %d cycles (occupancy %d)", maxCycles, b.Occupancy())
	return now
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Width: 0, RUUSize: 64}, nil); err == nil {
		t.Errorf("zero width should error")
	}
	if _, err := New(Config{Width: 8, RUUSize: 4}, nil); err == nil {
		t.Errorf("RUU smaller than width should error")
	}
	if _, err := New(Config{Width: 4, RUUSize: 65}, nil); err == nil {
		t.Errorf("RUU larger than the 64-entry scheduler mask should error")
	}
	b := MustNew(Config{Width: 4, RUUSize: 64}, nil)
	cfg := b.Config()
	if cfg.PipelineDepth != 15 || cfg.FrontEndStages != 7 {
		t.Errorf("defaults not applied: %+v", cfg)
	}
	def := DefaultConfig()
	if def.Width != 4 || def.RUUSize != 64 || def.PipelineDepth != 15 {
		t.Errorf("DefaultConfig does not match Table 2: %+v", def)
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("MustNew should panic")
		}
	}()
	MustNew(Config{Width: -1}, nil)
}

func TestDispatchCapacity(t *testing.T) {
	b := MustNew(Config{Width: 4, RUUSize: 8}, nil)
	if b.FreeSlots() != 8 {
		t.Errorf("FreeSlots = %d", b.FreeSlots())
	}
	for i := 0; i < 8; i++ {
		if !dispatch(b, alu(isa.Addr(i*4), 1, 2, 3), uint64(i), 0) {
			t.Fatalf("dispatch %d should succeed", i)
		}
	}
	if dispatch(b, alu(0x100, 1, 2, 3), 99, 0) {
		t.Errorf("dispatch into a full RUU should fail")
	}
	if b.FreeSlots() != 0 || b.Occupancy() != 8 {
		t.Errorf("occupancy wrong")
	}
	if seq, ok := b.OldestUncommitted(); !ok || seq != 0 {
		t.Errorf("OldestUncommitted = %d, %v", seq, ok)
	}
}

func TestIndependentInstructionsCommitAtFullWidth(t *testing.T) {
	b := MustNew(DefaultConfig(), nil)
	const n = 40
	for i := 0; i < n; i++ {
		// All independent (distinct registers, sources from the zero reg).
		si := alu(isa.Addr(i*4), isa.RegZero, isa.RegZero, uint8(1+i%30))
		if !dispatch(b, si, uint64(i), 0) {
			t.Fatalf("dispatch failed at %d", i)
		}
	}
	totalCommitted := 0
	maxPerCycle := 0
	now := uint64(0)
	for totalCommitted < n && now < 100 {
		committed, _ := b.TickInto(now)
		if committed > maxPerCycle {
			maxPerCycle = committed
		}
		totalCommitted += committed
		now++
	}
	if totalCommitted != n {
		t.Fatalf("committed %d of %d", totalCommitted, n)
	}
	if maxPerCycle != 4 {
		t.Errorf("max commits per cycle = %d, want 4", maxPerCycle)
	}
	if b.Committed() != n {
		t.Errorf("Committed() = %d", b.Committed())
	}
}

func TestCommitIsInOrder(t *testing.T) {
	b := MustNew(DefaultConfig(), nil)
	// First instruction is a long-latency FP op; the rest are independent
	// ALU ops. Nothing may commit before the FP op does.
	fp := &isa.StaticInst{PC: 0, Class: isa.OpFP, Src1: isa.RegZero, Src2: isa.RegZero, Dst: 5}
	dispatch(b, fp, 0, 0)
	for i := 1; i < 10; i++ {
		dispatch(b, alu(isa.Addr(i*4), isa.RegZero, isa.RegZero, uint8(10+i)), uint64(i), 0)
	}
	var order []uint64
	for now := uint64(0); now < 60 && b.Occupancy() > 0; now++ {
		committed, _ := tick(b, now)
		for _, d := range committed {
			order = append(order, d.Seq)
		}
	}
	if len(order) != 10 {
		t.Fatalf("committed %d instructions", len(order))
	}
	for i, seq := range order {
		if seq != uint64(i) {
			t.Fatalf("commit order broken: position %d has seq %d", i, seq)
		}
	}
}

func TestDataDependenceSerialisation(t *testing.T) {
	// A chain of dependent multiplies takes ~3 cycles each; independent ones
	// overlap. The dependent chain must take notably longer.
	depCycles := func(dependent bool) uint64 {
		b := MustNew(DefaultConfig(), nil)
		const n = 20
		for i := 0; i < n; i++ {
			src := uint8(isa.RegZero)
			if dependent && i > 0 {
				src = uint8(1 + (i-1)%30)
			}
			si := &isa.StaticInst{PC: isa.Addr(i * 4), Class: isa.OpMul, Src1: src, Src2: isa.RegZero, Dst: uint8(1 + i%30)}
			dispatch(b, si, uint64(i), 0)
		}
		now := uint64(0)
		for b.Occupancy() > 0 && now < 1000 {
			b.TickInto(now)
			now++
		}
		return now
	}
	dep := depCycles(true)
	indep := depCycles(false)
	if dep <= indep+20 {
		t.Errorf("dependent chain (%d cycles) should be much slower than independent (%d cycles)", dep, indep)
	}
}

func TestLoadsAccessTheDataCache(t *testing.T) {
	mem := memory.MustNew(memory.DefaultConfig(cacti.Tech45, 4<<10))
	b := MustNew(DefaultConfig(), mem)
	ld := &isa.StaticInst{PC: 0, Class: isa.OpLoad, Src1: isa.RegZero, Src2: isa.RegZero, Dst: 7}
	d := fetch(b, ld, 0)
	d.EffAddr = 0x9000_0000
	b.Dispatch(0)
	now := uint64(0)
	for b.Occupancy() > 0 && now < 1000 {
		mem.Tick(now)
		b.TickInto(now)
		now++
	}
	if b.Occupancy() != 0 {
		t.Fatalf("load never completed")
	}
	// A cold load must take at least the L2+memory latency.
	if now < 200 {
		t.Errorf("cold load committed after only %d cycles", now)
	}
	if mem.L1D().Accesses() == 0 {
		t.Errorf("the load should have accessed the D-cache")
	}
	// A second load to the same line is fast.
	b2 := MustNew(DefaultConfig(), mem)
	d2 := fetch(b2, ld, 1)
	d2.EffAddr = 0x9000_0008
	b2.Dispatch(1000)
	start := uint64(1000)
	end := runUntilDrained(t, b2, start, 100)
	if end-start > 20 {
		t.Errorf("warm load took %d cycles", end-start)
	}
}

func TestStoresDoNotBlockCommit(t *testing.T) {
	mem := memory.MustNew(memory.DefaultConfig(cacti.Tech45, 4<<10))
	b := MustNew(DefaultConfig(), mem)
	st := &isa.StaticInst{PC: 0, Class: isa.OpStore, Src1: 3, Src2: isa.RegZero, Dst: isa.RegZero}
	d := fetch(b, st, 0)
	d.EffAddr = 0xa000_0000
	b.Dispatch(0)
	end := runUntilDrained(t, b, 0, 50)
	if end > 20 {
		t.Errorf("store took %d cycles to commit", end)
	}
}

func TestMispredictedBranchResolution(t *testing.T) {
	b := MustNew(DefaultConfig(), nil)
	// Correct-path branch marked mispredicted, followed by wrong-path
	// instructions.
	br := &isa.StaticInst{PC: 0x100, Class: isa.OpBranch, Src1: 2, Src2: isa.RegZero, Dst: isa.RegZero, Target: 0x500}
	bd := fetch(b, br, 0)
	bd.MispredictedBranch = true
	b.Dispatch(0)
	for i := 1; i <= 6; i++ {
		wd := fetch(b, alu(isa.Addr(0x200+i*4), isa.RegZero, isa.RegZero, uint8(i)), uint64(i))
		wd.WrongPath = true
		b.Dispatch(0)
	}

	var resolvedAt uint64
	resolved := false
	now := uint64(0)
	for ; now < 100; now++ {
		if _, r := b.TickInto(now); r {
			resolved = true
			resolvedAt = now
			break
		}
	}
	if !resolved {
		t.Fatalf("misprediction never resolved")
	}
	// The resolution is the branch's own completion (seq 0; its window
	// position is not reused, as nothing more is fetched).
	if bd.Seq != 0 || bd.state != stateCompleted || bd.completAt != resolvedAt {
		t.Errorf("resolution at cycle %d is not the branch's completion: seq %d state %d completed at %d",
			resolvedAt, bd.Seq, bd.state, bd.completAt)
	}
	// Resolution must take at least the dispatch-to-execute portion of the
	// 15-stage pipeline.
	if resolvedAt < b.Config().issueDelay() {
		t.Errorf("resolved at cycle %d, before the issue delay %d", resolvedAt, b.Config().issueDelay())
	}
	// Squash the wrong path: they never commit.
	n := b.SquashWrongPath()
	if n != 6 {
		t.Errorf("squashed %d, want 6", n)
	}
	if b.SquashedWrongPath() != 6 {
		t.Errorf("SquashedWrongPath = %d", b.SquashedWrongPath())
	}
	// Only the branch itself ever commits (it may already have committed in
	// the same cycle it resolved).
	for ; now < 200 && b.Occupancy() > 0; now++ {
		b.TickInto(now)
	}
	if b.Committed() != 1 {
		t.Errorf("committed %d instructions, want only the branch", b.Committed())
	}
	if b.ResolvedMispredictions() != 1 {
		t.Errorf("ResolvedMispredictions = %d", b.ResolvedMispredictions())
	}
}

func TestWrongPathInstructionsNeverCommit(t *testing.T) {
	b := MustNew(DefaultConfig(), nil)
	// Wrong-path instructions follow the (correct-path) instruction before
	// them in program order, as the front-end delivers them.
	dispatch(b, alu(0x10, isa.RegZero, isa.RegZero, 4), 0, 0)
	w := fetch(b, alu(0x14, isa.RegZero, isa.RegZero, 3), 1)
	w.WrongPath = true
	b.Dispatch(0)
	// Even after many cycles only the correct-path instruction commits; the
	// completed wrong-path instruction then blocks commit at the head until
	// the squash.
	total := 0
	for now := uint64(0); now < 30; now++ {
		committed, _ := tick(b, now)
		for _, d := range committed {
			if d.WrongPath {
				t.Fatalf("committed wrong-path instruction seq %d", d.Seq)
			}
		}
		total += len(committed)
	}
	if total != 1 || b.Occupancy() != 1 {
		t.Fatalf("committed %d (occupancy %d), want 1 with the wrong-path entry left", total, b.Occupancy())
	}
	if n := b.SquashWrongPath(); n != 1 {
		t.Errorf("squashed %d, want 1", n)
	}
	if !b.Drained() {
		t.Errorf("occupancy %d after squash, want 0", b.Occupancy())
	}
}

func TestWrongPathDoesNotPolluteScoreboard(t *testing.T) {
	b := MustNew(DefaultConfig(), nil)
	// A wrong-path FP instruction writes r5 very late; a correct-path ALU
	// instruction reading r5, dispatched after the squash, must not wait for
	// it.
	w := fetch(b, &isa.StaticInst{PC: 0, Class: isa.OpFP, Src1: isa.RegZero, Src2: isa.RegZero, Dst: 5}, 0)
	w.WrongPath = true
	b.Dispatch(0)
	b.SquashWrongPath()
	dispatch(b, alu(0x4, 5, isa.RegZero, 6), 1, 0)
	end := runUntilDrained(t, b, 0, 40)
	if end > 20 {
		t.Errorf("correct-path instruction waited %d cycles on a squashed producer", end)
	}
}

func TestIPCIsBoundedByWidth(t *testing.T) {
	b := MustNew(DefaultConfig(), nil)
	const n = 400
	dispatched := 0
	committed := 0
	now := uint64(0)
	for committed < n && now < 10000 {
		// Dispatch up to 4 independent instructions per cycle.
		for w := 0; w < 4 && dispatched < n && b.FreeSlots() > 0; w++ {
			si := alu(isa.Addr(dispatched*4), isa.RegZero, isa.RegZero, uint8(1+dispatched%30))
			dispatch(b, si, uint64(dispatched), now)
			dispatched++
		}
		c, _ := b.TickInto(now)
		committed += c
		now++
	}
	ipc := float64(committed) / float64(now)
	if ipc > 4.0 {
		t.Errorf("IPC %.2f exceeds the machine width", ipc)
	}
	if ipc < 2.0 {
		t.Errorf("IPC %.2f is unreasonably low for independent ALU instructions", ipc)
	}
}

package pipeline

import (
	"testing"

	"clgp/internal/cacti"
	"clgp/internal/memory"
)

// BenchmarkBackendTick measures one back-end cycle (memory tick, TickInto,
// fetch and dispatch of up to Width instructions) on a dependence-heavy
// stream over a real memory hierarchy: eight registers, a quarter of the
// instructions loads, some missing to memory, so most RUU entries wait on an
// in-flight producer. The fixed instruction window, the request free-list
// and the fixed scheduler masks must keep it at 0 allocs/op.
func BenchmarkBackendTick(b *testing.B) {
	mem := memory.MustNew(memory.DefaultConfig(cacti.Tech90, 64<<10))
	cfg := DefaultConfig()
	be := MustNew(cfg, mem)
	ops, _ := genStream(1, 4096)
	next, seq, now := 0, uint64(0), uint64(0)
	step := func() {
		mem.Tick(now)
		be.TickInto(now)
		for n := 0; n < cfg.Width && be.FreeSlots() > 0; n++ {
			op := ops[next]
			next = (next + 1) % len(ops)
			d := be.FetchSlot()
			d.SetStatic(op.si)
			d.Seq, d.EffAddr = seq, op.addr
			seq++
			be.Dispatch(now)
		}
		now++
	}
	// Warm up past cold-start growth of the request free-list so the timed
	// region is steady state.
	for i := 0; i < 20000; i++ {
		step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

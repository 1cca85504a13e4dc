package prefetch

import (
	"testing"

	"clgp/internal/cacti"
	"clgp/internal/isa"
	"clgp/internal/memory"
)

// BenchmarkEngineCycle measures one front-end cycle of each prefetching
// engine against a real memory hierarchy: the predictor keeps the queue
// full with sequential blocks over a 64KB footprint (four times the L1),
// the engine scans its queue and issues prefetches, and the fetch stage
// takes the head line from the pre-buffer or the L1, waits for it while its
// prefetch is in flight, and otherwise takes it as a demand fill into the L1
// after missingWait cycles. Every 256 cycles a misprediction flushes the
// queue and the correct path refetches the flushed blocks. Requests and
// buffer slots recycle, so each engine must be 0 allocs/op once warm.
func BenchmarkEngineCycle(b *testing.B) {
	const missingWait = 20 // about an L2 round trip at 90nm
	engines := []struct {
		name string
		new  func(Config, *memory.Hierarchy) (Engine, error)
	}{
		{"nextn", func(c Config, h *memory.Hierarchy) (Engine, error) { return NewNextN(c, h) }},
		{"fdp", func(c Config, h *memory.Hierarchy) (Engine, error) { return NewFDP(c, h) }},
		{"clgp", func(c Config, h *memory.Hierarchy) (Engine, error) { return NewCLGP(c, h) }},
	}
	for _, eng := range engines {
		b.Run(eng.name, func(b *testing.B) {
			h := memory.MustNew(memory.DefaultConfig(cacti.Tech90, 16<<10))
			e, err := eng.new(Config{LineBytes: 64, QueueBlocks: 8, BufferEntries: 8, BufferLatency: 1}, h)
			if err != nil {
				b.Fatal(err)
			}
			var inFlight func(isa.Addr) bool
			switch e := e.(type) {
			case *NextNEngine:
				inFlight = e.Buffer().ContainsPending
			case *FDPEngine:
				inFlight = e.Buffer().ContainsPending
			case *CLGPEngine:
				inFlight = e.Buffer().ContainsPending
			}
			seq, waited := 0, 0
			step := func(now uint64) {
				for !e.QueueFull() {
					start := isa.Addr(0x40_0000 + 80*seq%(64<<10))
					e.EnqueueBlock(block(start, 20, start+80, uint64(seq)))
					seq++
				}
				h.Tick(now)
				e.Tick(now)
				if req, ok := e.NextFetch(); ok {
					hit, _ := e.LookupBuffer(req.Line, now)
					if !inFlight(req.Line) {
						waited++
					}
					if hit || h.L1I().Probe(req.Line) || waited == missingWait {
						h.L1I().Insert(req.Line)
						e.PopFetch()
						waited = 0
					}
				}
				if now%256 == 255 {
					seq -= e.BlocksQueued()
					e.Flush()
					waited = 0
				}
			}
			for now := uint64(0); now < 20_000; now++ { // warm the caches and free-lists
				step(now)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step(uint64(20_000 + i))
			}
		})
	}
}

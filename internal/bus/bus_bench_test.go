package bus

import "testing"

// BenchmarkArbiterGrant measures one cycle of L1-L2 bus arbitration under
// contention: data, demand-fetch and prefetch requests arrive at different
// rates, one is granted per cycle, the clock probes NextEvent, and queued
// prefetches are flushed every 64 cycles as on a misprediction. The FIFOs
// are rings, so this must be 0 allocs/op.
func BenchmarkArbiterGrant(b *testing.B) {
	a := New()
	step := func(i int) {
		now := uint64(i)
		if i%3 == 0 {
			a.Enqueue(Request{From: ReqDCache, Tag: now, Enqueued: now})
		}
		if i%2 == 0 {
			a.Enqueue(Request{From: ReqICache, Tag: now, Enqueued: now})
		}
		a.Enqueue(Request{From: ReqPrefetch, Tag: now, Enqueued: now})
		a.NextEvent(now)
		a.Grant(now)
		if i%64 == 63 {
			a.Flush(ReqPrefetch)
		}
	}
	for i := 0; i < 256; i++ { // grow the rings past cold start
		step(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step(i)
	}
}

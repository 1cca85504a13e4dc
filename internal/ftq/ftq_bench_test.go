package ftq

import (
	"testing"

	"clgp/internal/isa"
)

// benchBlock is the i-th fetch block of a sequential stream: 20
// instructions each, so most blocks start mid-line and span two or three
// 64-byte lines.
func benchBlock(i int) FetchBlock {
	start := isa.Addr(0x40_0000 + 80*i)
	return FetchBlock{Start: start, NumInsts: 20, Next: start + 80, EndsInBranch: true, SeqID: uint64(i)}
}

// BenchmarkFTQPushPop measures FDP's queue in steady state: the predictor
// keeps it full and the fetch stage drains one block per cycle. The ring
// buffer must keep this at 0 allocs/op.
func BenchmarkFTQPushPop(b *testing.B) {
	q, err := NewFTQ(8)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for !q.Full() {
			q.Push(benchBlock(i))
		}
		q.At(q.Len() - 1) // FDP's prefetch scan reads past the head
		q.Pop()
	}
}

// BenchmarkCLTQPushScanPop measures CLGP's queue as the engine drives it:
// blocks split into lines on Push, the prefetch scan marks the oldest
// unprocessed line each cycle, the fetch stage pops one line, and a
// misprediction flushes the queue every 64 cycles. Once the ring has grown
// to the working set this must be 0 allocs/op.
func BenchmarkCLTQPushScanPop(b *testing.B) {
	q, err := NewCLTQ(8, 64)
	if err != nil {
		b.Fatal(err)
	}
	step := func(i int) {
		for !q.Full() {
			q.Push(benchBlock(i))
		}
		if j := q.NextUnprefetched(); j >= 0 {
			q.MarkPrefetched(j)
		}
		q.Pop()
		if i%64 == 63 {
			q.Flush()
		}
	}
	for i := 0; i < 256; i++ { // grow the ring past cold start
		step(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step(i)
	}
}

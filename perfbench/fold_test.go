package main

import (
	"math"
	"testing"
)

// rawFixture is a small `go tool pprof -raw` listing: nine 10ms samples
// whose innermost frames cover an inlined call, the runtime under both of
// its import paths, a generic instantiation whose type argument names
// another package, and an unsymbolized address.
const rawFixture = `PeriodType: cpu nanoseconds
Period: 10000000
Time: 2026-01-01 00:00:00 +0000 UTC
Duration: 1
Samples:
samples/count cpu/nanoseconds
          3   30000000: 1 2 
          1   10000000: 2 
          2   20000000: 3 1 
          1   10000000: 4 
          1   10000000: 5 
          1   10000000: 6 
Locations
     1: 0x4a0000 M=1 clgp/internal/ftq.(*Queue).Push /src/ftq.go:10:0 s=0
             clgp/internal/core.(*Engine).predictStage /src/engine.go:20:0 s=0
     2: 0x4b0000 M=1 clgp/internal/core.(*Engine).Step /src/engine.go:30:0 s=0
     3: 0x4c0000 M=1 runtime.mallocgc /go/src/runtime/malloc.go:1:0 s=0
     4: 0x4d0000 M=1 internal/runtime/maps.(*Map).getWithKey /go/src/internal/runtime/maps/map.go:1:0 s=0
     5: 0x4e0000 M=1 clgp/internal/sim.run[go.shape.*clgp/internal/pipeline.Backend] /src/sim.go:1:0 s=0
     6: 0x4f0000 M=1 
Mappings
1: 0x400000/0x600000/0x0 /bin/perfbench 0123 [FN]
`

func TestFoldRawByPackage(t *testing.T) {
	self, err := foldRaw(rawFixture)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"ftq": 0.03, "core": 0.01, "runtime": 0.03, "other": 0.02}
	var total float64
	for _, pkg := range selfPackages {
		got, ok := self[pkg]
		if !ok {
			t.Errorf("bucket %s missing", pkg)
		}
		if math.Abs(got-want[pkg]) > 1e-12 {
			t.Errorf("self %s = %g, want %g", pkg, got, want[pkg])
		}
		total += got
	}
	if len(self) != len(selfPackages) {
		t.Errorf("fold has %d buckets, want %d", len(self), len(selfPackages))
	}
	if math.Abs(total-0.09) > 1e-12 {
		t.Errorf("buckets sum to %g s, want every sample (0.09 s)", total)
	}
}

func TestFoldRawRejectsMissingValueColumn(t *testing.T) {
	if _, err := foldRaw("Samples:\nsamples/count\n  1: 1\n"); err == nil {
		t.Fatal("a listing without a nanoseconds column folded")
	}
}

func TestBucketOf(t *testing.T) {
	for fn, want := range map[string]string{
		"clgp/internal/trace.(*WindowTrace).At":    "trace",
		"clgp/internal/tracefile.decodeChunk":      "tracefile",
		"clgp/internal/telemetry.(*Counter).Inc":   "other",
		"runtime/internal/atomic.Xadd":             "runtime",
		"compress/flate.(*decompressor).huffBlock": "other",
		"main.run": "other",
		"":         "other",
	} {
		if got := bucketOf(fn); got != want {
			t.Errorf("bucketOf(%q) = %s, want %s", fn, got, want)
		}
	}
}

package main

import (
	"io"
	"math"
	"runtime/debug"
	"testing"
	"time"
)

var sink []byte

// TestMemSamplerPeaks takes peaks while the sampler goroutine polls, as the
// repetition loop does, and checks each take starts over.
func TestMemSamplerPeaks(t *testing.T) {
	m := startMemSampler()
	defer m.Stop()
	for i := 0; i < 5; i++ {
		sink = make([]byte, 8<<20)
		for j := range sink {
			sink[j] = byte(j) // touch every page so it is resident
		}
		time.Sleep(time.Millisecond)
		rss, heap := m.take()
		if rss < 8 || heap < 8 {
			t.Fatalf("take %d: peak rss %.1f MB, heap %.1f MB with an 8 MB buffer live", i, rss, heap)
		}
	}
	sink = nil
	debug.FreeOSMemory()
	m.take() // may still hold a sample from before the buffer was freed
	if _, heap := m.take(); heap >= 8 {
		t.Errorf("take after freeing the buffer: peak heap %.1f MB, want the earlier peak forgotten", heap)
	}
}

// TestEndToEndScalesByReference checks host times are scaled by the
// reference kernel's median, wall by wall and CPU by CPU, and memory is not.
func TestEndToEndScalesByReference(t *testing.T) {
	e := &env{
		refWall: []float64{2 * refNominalS, 2 * refNominalS, 9},
		refCPU:  []float64{4 * refNominalS, 4 * refNominalS, 9},
	}
	reps := []rep{
		{setup: 1, wall: 10, cpu: 20, rss: 30},
		{setup: 3, wall: 30, cpu: 60, rss: 50},
		{setup: 2, wall: 20, cpu: 40, rss: 40},
	}
	m := endToEndMetrics(reps, e, io.Discard)
	for name, want := range map[string]float64{"wall_s": 10, "cpu_s": 10, "setup_s": 1, "peak_rss_mb": 40} {
		if got := m[name].Value; math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %g, want %g", name, got, want)
		}
	}
}

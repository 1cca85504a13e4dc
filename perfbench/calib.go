package main

import (
	"bytes"
	"compress/flate"
	"sort"
)

// refNominalS is the reference kernel's time, in seconds, on the host the
// benchmark's figures are scaled to.
const refNominalS = 0.075

// refSamples is how many times the kernel runs before each repetition.
const refSamples = 6

// refKernel times a fixed amount of standard-library work — a sort, map
// updates and a deflate — that shares no code with the simulator, and
// returns its wall and CPU seconds. The host's speed drifts by tens of
// percent over minutes under neighbouring load; the kernel slows with it,
// so host times divided by the kernel's time (measured in the same run)
// compare across runs.
func refKernel() (wall, cpu float64) {
	return timeBody(func() {
		// Inputs are built inside the kernel so that none stay live to
		// weigh on the repetitions' memory peaks.
		xs := make([]int, 300_000)
		x := uint64(88172645463325252)
		for i := range xs {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			xs[i] = int(x >> 20)
		}
		blob := make([]byte, 256<<10)
		for i := range blob {
			blob[i] = byte(xs[i%len(xs)] % 7 * 31)
		}
		sort.Ints(xs)
		m := make(map[int]int, 1<<14)
		for i, x := range xs[:100_000] {
			m[x&0xffff] += i
		}
		var buf bytes.Buffer
		zw, _ := flate.NewWriter(&buf, flate.DefaultCompression) // a valid level cannot fail
		zw.Write(blob)
		zw.Close()
	})
}

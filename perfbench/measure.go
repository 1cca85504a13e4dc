package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"io"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"clgp/internal/stats"
	"clgp/internal/telemetry"
)

// cpuNow returns the process's user+system CPU time in seconds.
func cpuNow() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// readRuntime reads one uint64 runtime/metrics sample without stopping the
// world, as ReadMemStats would.
func readRuntime(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// heapAllocs is the cumulative count of heap allocations.
func heapAllocs() uint64 { return readRuntime("/gc/heap/allocs:objects") }

// memSampler polls the process's resident set and live heap every 10 ms
// until stopped, keeping the peaks since the last take. Peaks per
// repetition, unlike the process's high-water mark, do not grow with the
// number of repetitions a run fits in.
type memSampler struct {
	statm      *os.File // /proc/self/statm; nil where there is none
	stop, done chan struct{}
	mu         sync.Mutex
	rss, heap  uint64 // bytes
}

func startMemSampler() *memSampler {
	m := &memSampler{stop: make(chan struct{}), done: make(chan struct{})}
	m.statm, _ = os.Open("/proc/self/statm") // peak_rss_mb reads 0 without it
	go func() {
		defer close(m.done)
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			m.sample()
			select {
			case <-m.stop:
				return
			case <-t.C:
			}
		}
	}()
	return m
}

func (m *memSampler) sample() {
	rss := m.resident()
	heap := readRuntime("/memory/classes/heap/objects:bytes")
	m.mu.Lock()
	m.rss = max(m.rss, rss)
	m.heap = max(m.heap, heap)
	m.mu.Unlock()
}

// resident returns the resident set in bytes: statm's second field, in
// pages.
func (m *memSampler) resident() uint64 {
	if m.statm == nil {
		return 0
	}
	var buf [128]byte
	n, err := m.statm.ReadAt(buf[:], 0)
	if err != nil && err != io.EOF {
		return 0
	}
	fields := strings.Fields(string(buf[:n]))
	if len(fields) < 2 {
		return 0
	}
	pages, err := strconv.ParseUint(fields[1], 10, 64)
	if err != nil {
		return 0
	}
	return pages * uint64(os.Getpagesize())
}

// take returns the peaks in MB since the last take and starts over.
func (m *memSampler) take() (rssMB, heapMB float64) {
	m.sample()
	m.mu.Lock()
	defer m.mu.Unlock()
	rssMB, heapMB = float64(m.rss)/(1<<20), float64(m.heap)/(1<<20)
	m.rss, m.heap = 0, 0
	return rssMB, heapMB
}

// Stop ends sampling and waits for the sampler to exit.
func (m *memSampler) Stop() {
	close(m.stop)
	<-m.done
	if m.statm != nil {
		m.statm.Close()
	}
}

// median returns the middle of xs (the mean of the two middles for an even
// count); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// checker counts simulations against the ways one can fail, and digests
// every simulated statistic of each repetition: the digest must repeat
// exactly across repetitions and runs of one seed.
type checker struct {
	attempted, failed int
	failures          []string
	rep               hash.Hash // digest of the repetition under way
	digest            string    // the first repetition's digest
	mismatched        int       // repetitions whose digest differed from it
}

func (c *checker) beginRep() { c.rep = sha256.New() }

func (c *checker) endRep() {
	d := hex.EncodeToString(c.rep.Sum(nil))
	switch {
	case c.digest == "":
		c.digest = d
	case d != c.digest:
		c.mismatched++
	}
}

// correct reports whether no simulation failed and every repetition
// produced the same statistics.
func (c *checker) correct() bool { return c.failed == 0 && c.mismatched == 0 }

// sim records one simulation. It fails on an error, on cycle accounts that
// do not sum to the cycle count, or on fewer committed instructions than
// requested. A successful run's statistics, without the mode-dependent
// telemetry block, are folded into the digest under its label.
func (c *checker) sim(label string, r *stats.Results, err error, wantInsts int) {
	c.attempted++
	switch {
	case err != nil:
		c.fail("%s: %v", label, err)
	case r == nil:
		c.fail("%s: no results", label)
	case r.CycleAccounts.Total() != r.Cycles:
		c.fail("%s: cycle accounts sum to %d, not %d cycles", label, r.CycleAccounts.Total(), r.Cycles)
	case r.Committed < uint64(wantInsts):
		c.fail("%s: committed %d of %d instructions", label, r.Committed, wantInsts)
	default:
		data, err := json.Marshal(r.WithoutTelemetry())
		if err != nil {
			c.fail("%s: encoding results: %v", label, err)
			return
		}
		fmt.Fprintf(c.rep, "%s\n%s\n", label, data)
	}
}

func (c *checker) fail(format string, args ...any) {
	c.failed++
	if len(c.failures) < 8 {
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
}

// timed calls f under a benchmark-side span named after the public
// function it calls, parented under parent, and returns its wall seconds.
// A nil recorder records no span.
func timed(rec *telemetry.SpanRecorder, name, parent string, f func() error) (float64, error) {
	sp := rec.Begin(telemetry.SpanPhase, name, "perfbench", parent)
	start := time.Now()
	err := f()
	d := time.Since(start).Seconds()
	sp.End()
	return d, err
}

package main

import (
	"bufio"
	"fmt"
	"os/exec"
	"strconv"
	"strings"
)

// profileSelf folds the CPU profile at path by package, in seconds of CPU
// samples, using the Go toolchain's pprof.
func profileSelf(path string) (map[string]float64, error) {
	out, err := exec.Command("go", "tool", "pprof", "-raw", path).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -raw %s: %w", path, err)
	}
	return foldRaw(string(out))
}

// foldRaw folds a `pprof -raw` listing by the package of each sample's
// innermost frame (its self time) into the buckets of selfPackages. Every
// sample lands in exactly one bucket, so the buckets sum to the profile's
// total.
func foldRaw(raw string) (map[string]float64, error) {
	type sample struct {
		nanos int64
		leaf  string // location ID of the innermost frame
	}
	var samples []sample
	leafFunc := map[string]string{} // location ID -> innermost function
	valueCol := -1
	section := ""
	sc := bufio.NewScanner(strings.NewReader(raw))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		trimmed := strings.TrimSpace(line)
		switch {
		case trimmed == "Samples:", trimmed == "Locations", trimmed == "Mappings":
			section = trimmed
			continue
		case trimmed == "":
			continue
		}
		switch section {
		case "Samples:":
			if valueCol < 0 {
				// Header: "samples/count cpu/nanoseconds".
				for i, f := range strings.Fields(trimmed) {
					if strings.HasSuffix(f, "/nanoseconds") {
						valueCol = i
					}
				}
				if valueCol < 0 {
					return nil, fmt.Errorf("pprof: no nanoseconds column in %q", trimmed)
				}
				continue
			}
			vals, locs, ok := strings.Cut(trimmed, ":")
			if !ok {
				continue // a label line of the sample above
			}
			fields := strings.Fields(vals)
			ids := strings.Fields(locs)
			if valueCol >= len(fields) || len(ids) == 0 {
				return nil, fmt.Errorf("pprof: malformed sample %q", trimmed)
			}
			n, err := strconv.ParseInt(fields[valueCol], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("pprof: sample %q: %w", trimmed, err)
			}
			samples = append(samples, sample{n, ids[0]})
		case "Locations":
			// "<id>: <addr> M=<m> <func> <file:line> s=<n>"; the indented
			// lines that follow are the callers it was inlined into.
			id, rest, ok := strings.Cut(trimmed, ":")
			if !ok || strings.ContainsAny(id, " \t") || !strings.HasPrefix(strings.TrimSpace(rest), "0x") {
				continue
			}
			fields := strings.Fields(rest)
			fn := ""
			if len(fields) >= 3 {
				fn = fields[2]
			}
			leafFunc[id] = fn
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	self := make(map[string]float64, len(selfPackages))
	for _, pkg := range selfPackages {
		self[pkg] = 0
	}
	for _, s := range samples {
		self[bucketOf(leafFunc[s.leaf])] += float64(s.nanos) / 1e9
	}
	return self, nil
}

// bucketOf maps a symbol ("clgp/internal/ftq.(*Queue).Push",
// "runtime.mallocgc") to its selfPackages bucket.
func bucketOf(fn string) string {
	s := fn
	if i := strings.IndexByte(s, '['); i >= 0 {
		s = s[:i] // type arguments may hold other package paths
	}
	slash := strings.LastIndexByte(s, '/')
	if dot := strings.IndexByte(s[slash+1:], '.'); dot >= 0 {
		s = s[:slash+1+dot]
	}
	switch {
	case s == "runtime", strings.HasPrefix(s, "runtime/"), strings.HasPrefix(s, "internal/runtime/"):
		return "runtime"
	case strings.HasPrefix(s, "clgp/internal/"):
		name := strings.TrimPrefix(s, "clgp/internal/")
		for _, pkg := range selfPackages {
			if pkg == name && pkg != "runtime" && pkg != "other" {
				return pkg
			}
		}
	}
	return "other"
}

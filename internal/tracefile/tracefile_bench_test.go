package tracefile

import (
	"bytes"
	"io"
	"path/filepath"
	"testing"

	"clgp/internal/trace"
	"clgp/internal/workload"
)

// benchRecords is sized so the encode loop spans several chunks per
// iteration batch without dominating benchmark setup time.
func benchRecords(b *testing.B) []trace.Record {
	return testRecords(b, 100_000, 13)
}

func BenchmarkEncode(b *testing.B) {
	recs := benchRecords(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, err := NewWriter(io.Discard, Options{Workload: "gcc"})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range recs {
			if err := w.Write(r); err != nil {
				b.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(recs)))
}

func BenchmarkDecode(b *testing.B) {
	recs := benchRecords(b)
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Options{Workload: "gcc"})
	if err != nil {
		b.Fatal(err)
	}
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	rd, err := NewReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		b.Fatal(err)
	}
	dst := make([]trace.Record, 8192)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for pos := 0; pos < rd.Len(); {
			n, err := rd.ReadRecordsAt(pos, dst)
			if err != nil {
				b.Fatal(err)
			}
			pos += n
		}
	}
	b.SetBytes(int64(len(recs)))
}

// streamSink keeps the compiler from discarding the records the stream
// benchmark reads.
var streamSink trace.Record

// BenchmarkWindowTraceStream is the streamed-run read path end to end: open
// a recorded mcf container, window it with trace.NewWindowTrace and read
// every record in order, advancing the frontier behind the reads as the
// engine's commit does.
func BenchmarkWindowTraceStream(b *testing.B) {
	const n = 1 << 18
	p, err := workload.ProfileByName("mcf")
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "mcf.clgt")
	w, err := Create(path, Options{Workload: p.Name, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := workload.GenerateTo(p, n, 1, w); err != nil {
		b.Fatal(err)
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd, err := Open(path)
		if err != nil {
			b.Fatal(err)
		}
		wt, err := trace.NewWindowTrace(rd, 0)
		if err != nil {
			b.Fatal(err)
		}
		for k := 0; k < wt.Len(); k++ {
			streamSink = wt.At(k)
			wt.Advance(k)
		}
		rd.Close()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/record")
}

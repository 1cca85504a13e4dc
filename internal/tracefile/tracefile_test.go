package tracefile

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"clgp/internal/trace"
	"clgp/internal/workload"
)

// testRecords walks the gcc profile to get realistic committed-path records
// (sequential runs, taken branches, memory deltas of every kind).
func testRecords(t testing.TB, numInsts int, seed int64) []trace.Record {
	t.Helper()
	p, err := workload.ProfileByName("gcc")
	if err != nil {
		t.Fatalf("profile: %v", err)
	}
	w, err := workload.Generate(p, numInsts, seed)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	return w.Trace.Records()
}

// writeContainer writes recs into a fresh container file and returns its path.
func writeContainer(t testing.TB, recs []trace.Record, opts Options) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "test.clgt")
	w, err := Create(path, opts)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatalf("write: %v", err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	return path
}

func TestRoundTrip(t *testing.T) {
	recs := testRecords(t, 50_000, 3)
	// A small chunk size forces many chunks plus a partial final chunk, so
	// the per-chunk delta reset and the index see real coverage.
	path := writeContainer(t, recs, Options{
		Workload: "gcc", Fingerprint: 0xdeadbeef, Seed: 3, ChunkRecords: 4096,
	})
	rd, err := Open(path)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer rd.Close()
	if rd.Workload() != "gcc" || rd.Fingerprint() != 0xdeadbeef || rd.Seed() != 3 {
		t.Errorf("header mismatch: workload %q fingerprint %#x seed %d", rd.Workload(), rd.Fingerprint(), rd.Seed())
	}
	if rd.Len() != len(recs) {
		t.Fatalf("Len = %d, want %d", rd.Len(), len(recs))
	}
	if want := (len(recs) + 4095) / 4096; rd.NumChunks() != want {
		t.Errorf("NumChunks = %d, want %d", rd.NumChunks(), want)
	}
	got, err := rd.ReadAll()
	if err != nil {
		t.Fatalf("readall: %v", err)
	}
	for i, r := range got.Records() {
		if r != recs[i] {
			t.Fatalf("record %d decoded as %+v, want %+v", i, r, recs[i])
		}
	}
	// The delta encoding should stay well under two bytes per record
	// before compression even counts.
	if bpr := float64(fileSize(t, path)) / float64(len(recs)); bpr > 2 {
		t.Errorf("container costs %.2f bytes/record, want < 2", bpr)
	}
}

func fileSize(t testing.TB, path string) int64 {
	t.Helper()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return st.Size()
}

func TestEmptyContainer(t *testing.T) {
	path := writeContainer(t, nil, Options{Workload: "empty"})
	rd, err := Open(path)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer rd.Close()
	if rd.Len() != 0 || rd.NumChunks() != 0 {
		t.Errorf("empty container reports %d records in %d chunks", rd.Len(), rd.NumChunks())
	}
	mt, err := rd.ReadAll()
	if err != nil || mt.Len() != 0 {
		t.Errorf("ReadAll = %d records, %v", mt.Len(), err)
	}
}

func TestReadRecordsAtAcrossChunks(t *testing.T) {
	recs := testRecords(t, 20_000, 5)
	path := writeContainer(t, recs, Options{Workload: "gcc", ChunkRecords: 1 << 12})
	rd, err := Open(path)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer rd.Close()
	// Reads that start mid-chunk and span a boundary must return the
	// in-chunk tail first, then continue from the next chunk.
	for _, lo := range []int{0, 1, 4095, 4096, 4097, 12345, len(recs) - 1} {
		buf := make([]trace.Record, 8192)
		got := 0
		for i := lo; i < len(recs) && got < len(buf); {
			n, err := rd.ReadRecordsAt(i, buf[got:])
			if err != nil {
				t.Fatalf("ReadRecordsAt(%d): %v", i, err)
			}
			if n == 0 {
				t.Fatalf("ReadRecordsAt(%d) returned 0 records", i)
			}
			got += n
			i += n
		}
		for k := 0; k < got; k++ {
			if buf[k] != recs[lo+k] {
				t.Fatalf("read from %d: record %d = %+v, want %+v", lo, lo+k, buf[k], recs[lo+k])
			}
		}
	}
	if _, err := rd.ReadRecordsAt(len(recs), make([]trace.Record, 1)); err == nil {
		t.Errorf("read past the end succeeded")
	}
	if _, err := rd.ReadRecordsAt(-1, make([]trace.Record, 1)); err == nil {
		t.Errorf("negative read succeeded")
	}
}

func TestSlice(t *testing.T) {
	recs := testRecords(t, 30_000, 7)
	srcPath := writeContainer(t, recs, Options{Workload: "gcc", Seed: 7, ChunkRecords: 4096})
	src, err := Open(srcPath)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer src.Close()

	lo, hi := 5000, 21_000
	dstPath := filepath.Join(t.TempDir(), "slice.clgt")
	dst, err := Create(dstPath, Options{
		Workload: "gcc", Seed: 7, Origin: src.Origin() + lo, ChunkRecords: 4096,
	})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if err := Slice(dst, src, lo, hi); err != nil {
		t.Fatalf("slice: %v", err)
	}
	if err := dst.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	rd, err := Open(dstPath)
	if err != nil {
		t.Fatalf("open slice: %v", err)
	}
	defer rd.Close()
	got, err := rd.ReadAll()
	if err != nil {
		t.Fatalf("readall: %v", err)
	}
	if got.Len() != hi-lo {
		t.Fatalf("slice holds %d records, want %d", got.Len(), hi-lo)
	}
	if rd.Origin() != lo {
		t.Errorf("slice origin = %d, want %d", rd.Origin(), lo)
	}
	for i, r := range got.Records() {
		if r != recs[lo+i] {
			t.Fatalf("slice record %d = %+v, want %+v", i, r, recs[lo+i])
		}
	}

	if err := Slice(dst, src, 0, src.Len()+1); err == nil {
		t.Errorf("out-of-range slice succeeded")
	}
}

// TestCorruptContainers covers the structured failure modes: every mangled
// file must fail cleanly (ErrCorrupt/ErrBadMagic/ErrBadVersion or a read
// error), never decode garbage records silently.
func TestCorruptContainers(t *testing.T) {
	recs := testRecords(t, 10_000, 9)
	path := writeContainer(t, recs, Options{Workload: "gcc", ChunkRecords: 2048})
	valid, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	openBytes := func(data []byte) (*Reader, error) {
		return NewReader(bytes.NewReader(data), int64(len(data)))
	}

	t.Run("truncated-trailer", func(t *testing.T) {
		if _, err := openBytes(valid[:len(valid)-5]); err == nil {
			t.Error("open succeeded on a truncated trailer")
		}
	})
	t.Run("truncated-chunks", func(t *testing.T) {
		// Chop from the middle: the trailer then points past the end.
		if _, err := openBytes(valid[:len(valid)/2]); err == nil {
			t.Error("open succeeded on a half file")
		}
	})
	t.Run("bad-magic", func(t *testing.T) {
		mangled := append([]byte(nil), valid...)
		mangled[0] ^= 0xff
		if _, err := openBytes(mangled); !errors.Is(err, ErrBadMagic) {
			t.Errorf("got %v, want ErrBadMagic", err)
		}
	})
	t.Run("bad-version", func(t *testing.T) {
		mangled := append([]byte(nil), valid...)
		mangled[4] = 0xff
		if _, err := openBytes(mangled); !errors.Is(err, ErrBadVersion) {
			t.Errorf("got %v, want ErrBadVersion", err)
		}
	})
	t.Run("flipped-chunk-byte", func(t *testing.T) {
		// Structure (header, index, trailer) stays valid; the damage is in
		// the chunk payload, so it must surface when the chunk is decoded
		// (gzip CRC or varint decode).
		mangled := append([]byte(nil), valid...)
		mangled[headerFixedLen+len("gcc")+100] ^= 0x40
		rd, err := openBytes(mangled)
		if err != nil {
			return // caught at open time is fine too
		}
		if _, err := rd.ReadAll(); err == nil {
			t.Error("decoding a damaged chunk succeeded")
		}
	})
	t.Run("empty-file", func(t *testing.T) {
		if _, err := openBytes(nil); err == nil {
			t.Error("open succeeded on an empty file")
		}
	})
}

// TestChunkCountBoundedByPayload: a footer may claim up to chunk_records
// records for a chunk whose payload holds far fewer. The reader must reject
// it without first sizing its record buffer to the claim.
func TestChunkCountBoundedByPayload(t *testing.T) {
	const claim = 1 << 22 // 128MB of records if believed
	path := writeContainer(t, testRecords(t, 10, 1), Options{Workload: "gcc", ChunkRecords: claim})
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Footer: num_chunks u32, then offset u64, length u32, count u32 per
	// chunk, then total u64.
	foot := binary.LittleEndian.Uint64(data[len(data)-trailerLen:])
	binary.LittleEndian.PutUint32(data[foot+4+12:], claim)
	binary.LittleEndian.PutUint64(data[foot+4+16:], claim)
	rd, err := NewReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = rd.ReadRecordsAt(0, make([]trace.Record, 1))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrCorrupt) {
		t.Errorf("read of an over-claimed chunk: got %v, want ErrCorrupt", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 16<<20 {
		t.Errorf("reader allocated %d bytes for a %d-byte chunk", grew, rd.ChunkBytes())
	}
}

// deflatedContainer was recorded by a build whose writer deflated chunks at
// gzip's default level (`clgpsim trace record -profile gcc -insts 3000
// -seed 11 -chunk 1024`). Current writers store chunks uncompressed; readers
// must still open every container already in a store or cache.
const deflatedContainer = "testdata/gcc-3k-deflated.clgt"

func TestDeflatedContainerStillOpens(t *testing.T) {
	rd, err := Open(deflatedContainer)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer rd.Close()
	p, err := workload.ProfileByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.Generate(p, 3_000, 11)
	if err != nil {
		t.Fatal(err)
	}
	if rd.Workload() != "gcc" || rd.Seed() != 11 || rd.Fingerprint() != workload.Fingerprint(p, w.Dict) {
		t.Fatalf("header: workload %q seed %d fingerprint %#x", rd.Workload(), rd.Seed(), rd.Fingerprint())
	}
	got, err := rd.ReadAll()
	if err != nil {
		t.Fatalf("readall: %v", err)
	}
	recs := w.Trace.Records()
	if got.Len() != len(recs) {
		t.Fatalf("decoded %d records, regenerated %d", got.Len(), len(recs))
	}
	for i, r := range got.Records() {
		if r != recs[i] {
			t.Fatalf("record %d decoded as %+v, regenerated %+v", i, r, recs[i])
		}
	}

	// Slicing re-encodes through the current (stored-chunk) writer.
	lo, hi := 700, 2_500
	dstPath := filepath.Join(t.TempDir(), "slice.clgt")
	dst, err := Create(dstPath, Options{Workload: "gcc", Seed: 11, Origin: lo, ChunkRecords: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if err := Slice(dst, rd, lo, hi); err != nil {
		t.Fatalf("slice: %v", err)
	}
	if err := dst.Close(); err != nil {
		t.Fatal(err)
	}
	sl, err := Open(dstPath)
	if err != nil {
		t.Fatalf("open slice: %v", err)
	}
	defer sl.Close()
	part, err := sl.ReadAll()
	if err != nil {
		t.Fatalf("readall slice: %v", err)
	}
	if part.Len() != hi-lo {
		t.Fatalf("slice holds %d records, want %d", part.Len(), hi-lo)
	}
	for i, r := range part.Records() {
		if r != recs[lo+i] {
			t.Fatalf("slice record %d = %+v, want %+v", i, r, recs[lo+i])
		}
	}
}

// TestWriterStoresChunks pins the writer to stored deflate blocks: the first
// block header after each chunk's 10-byte gzip header must carry BTYPE 00.
func TestWriterStoresChunks(t *testing.T) {
	path := writeContainer(t, testRecords(t, 10_000, 9), Options{Workload: "gcc", ChunkRecords: 4096})
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rd, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	for i := 0; i < rd.NumChunks(); i++ {
		if btype := data[rd.Chunk(i).Offset+10] >> 1 & 3; btype != 0 {
			t.Errorf("chunk %d starts with deflate block type %d, want 0 (stored)", i, btype)
		}
	}
}

// FuzzOpen drives NewReader + a full decode over mutated container bytes.
// The invariant: no panic, and a successful open either decodes exactly
// Len() records or reports an error.
func FuzzOpen(f *testing.F) {
	recs := testRecords(f, 3_000, 11)
	path := writeContainer(f, recs, Options{Workload: "gcc", ChunkRecords: 1024})
	valid, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	deflated, err := os.ReadFile(deflatedContainer)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-1])                         // truncated trailer
	f.Add(valid[:len(valid)/3])                         // truncated chunks
	f.Add(valid[:headerFixedLen])                       // header only
	f.Add(append([]byte(nil), valid[len(valid)/2:]...)) // missing header
	f.Add([]byte{})
	f.Add(deflated) // inflate path: chunks written at gzip's default level
	f.Fuzz(func(t *testing.T, data []byte) {
		rd, err := NewReader(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			return
		}
		mt, err := rd.ReadAll()
		if err != nil {
			return
		}
		if mt.Len() != rd.Len() {
			t.Fatalf("decoded %d records, index advertises %d", mt.Len(), rd.Len())
		}
	})
}

func TestWriterMisuse(t *testing.T) {
	path := filepath.Join(t.TempDir(), "misuse.clgt")
	w, err := Create(path, Options{Workload: "x"})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Write(trace.Record{}); err == nil {
		t.Error("write after Close succeeded")
	}
	if err := w.Close(); err == nil {
		t.Error("double Close succeeded")
	}
	if _, err := Create(path, Options{Workload: string(make([]byte, maxNameLen+1))}); err == nil {
		t.Error("oversized workload name accepted")
	}
}

package tracefile

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"clgp/internal/isa"
	"clgp/internal/trace"
)

// Writer serialises records into the chunked container format. It buffers
// one chunk of encoded records at a time, frames each full chunk as a gzip
// stream of stored (uncompressed) deflate blocks on the underlying writer,
// and emits the footer index and trailer on Close. The underlying writer
// never needs to seek, so any io.Writer works.
//
// Chunks are stored rather than deflated because the delta/varint record
// encoding already does most of the size work: deflate saved about a third
// of the bytes but cost most of the recording time and slowed every
// streamed read. The gzip framing stays for its per-chunk CRC, and readers
// decode any deflate level, so containers written deflated still open.
type Writer struct {
	w      io.Writer
	closer io.Closer // closed on Close when the Writer owns the file
	opts   Options

	// chunk under construction
	buf        []byte
	inChunk    uint32
	prevTarget isa.Addr
	prevEff    isa.Addr

	// gzip framing scratch, reused across chunks
	cb bytes.Buffer
	gz *gzip.Writer

	index  []chunkInfo
	offset uint64
	count  uint64
	err    error
	closed bool
}

// NewWriter creates a Writer emitting to w and writes the container header.
func NewWriter(w io.Writer, opts Options) (*Writer, error) {
	if opts.ChunkRecords == 0 {
		opts.ChunkRecords = DefaultChunkRecords
	}
	hdr, err := encodeHeader(opts)
	if err != nil {
		return nil, err
	}
	gz, err := gzip.NewWriterLevel(io.Discard, gzip.NoCompression)
	if err != nil {
		return nil, fmt.Errorf("tracefile: %w", err)
	}
	if _, err := w.Write(hdr); err != nil {
		return nil, fmt.Errorf("tracefile: writing header: %w", err)
	}
	return &Writer{
		w:      w,
		opts:   opts,
		buf:    make([]byte, 0, 4*opts.ChunkRecords),
		gz:     gz,
		offset: uint64(len(hdr)),
	}, nil
}

// Create creates (truncating) a trace file at path; Close also closes the
// file.
func Create(path string, opts Options) (*Writer, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("tracefile: %w", err)
	}
	w, err := NewWriter(f, opts)
	if err != nil {
		f.Close()
		return nil, err
	}
	w.closer = f
	return w, nil
}

// Write appends one record. It implements the record-sink contract shared
// with workload generation (workload.RecordSink), so a walker can emit
// straight to disk without materialising the trace.
func (w *Writer) Write(r trace.Record) error {
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return fmt.Errorf("tracefile: write after Close")
	}
	var flags byte
	if r.Taken {
		flags |= flagTaken
	}
	if r.EffAddr != 0 {
		flags |= flagHasMem
	}
	if r.Target == r.PC+isa.InstBytes {
		flags |= flagSeqNext
	}
	if r.PC == w.prevTarget {
		flags |= flagContPC
	}
	w.buf = append(w.buf, flags)
	if flags&flagContPC == 0 {
		w.buf = binary.AppendVarint(w.buf, int64(r.PC-w.prevTarget))
	}
	if flags&flagSeqNext == 0 {
		w.buf = binary.AppendVarint(w.buf, int64(r.Target-r.PC))
	}
	if flags&flagHasMem != 0 {
		w.buf = binary.AppendVarint(w.buf, int64(r.EffAddr-w.prevEff))
		w.prevEff = r.EffAddr
	}
	w.prevTarget = r.Target
	w.inChunk++
	w.count++
	if int(w.inChunk) >= w.opts.ChunkRecords {
		return w.flushChunk()
	}
	return nil
}

// flushChunk frames the chunk under construction as a gzip stream and emits
// it.
func (w *Writer) flushChunk() error {
	if w.inChunk == 0 {
		return nil
	}
	w.cb.Reset()
	w.gz.Reset(&w.cb)
	if _, err := w.gz.Write(w.buf); err != nil {
		w.err = fmt.Errorf("tracefile: framing chunk %d: %w", len(w.index), err)
		return w.err
	}
	if err := w.gz.Close(); err != nil {
		w.err = fmt.Errorf("tracefile: framing chunk %d: %w", len(w.index), err)
		return w.err
	}
	if _, err := w.w.Write(w.cb.Bytes()); err != nil {
		w.err = fmt.Errorf("tracefile: writing chunk %d: %w", len(w.index), err)
		return w.err
	}
	w.index = append(w.index, chunkInfo{
		offset: w.offset,
		length: uint32(w.cb.Len()),
		count:  w.inChunk,
	})
	w.offset += uint64(w.cb.Len())
	w.buf = w.buf[:0]
	w.inChunk = 0
	w.prevTarget = 0
	w.prevEff = 0
	return nil
}

// Count returns the number of records written so far.
func (w *Writer) Count() uint64 { return w.count }

// Close flushes the final partial chunk, writes the footer index and the
// trailer, and closes the underlying file when the Writer owns it. It must
// be called exactly once; the file is not a valid container before Close.
func (w *Writer) Close() error {
	if w.closed {
		return fmt.Errorf("tracefile: double Close")
	}
	w.closed = true
	closeFile := func() error {
		if w.closer == nil {
			return nil
		}
		return w.closer.Close()
	}
	if w.err != nil {
		closeFile()
		return w.err
	}
	if err := w.flushChunk(); err != nil {
		closeFile()
		return err
	}
	footer := encodeFooter(w.index, w.count)
	if _, err := w.w.Write(footer); err != nil {
		closeFile()
		return fmt.Errorf("tracefile: writing footer: %w", err)
	}
	trailer := encodeTrailer(w.offset, uint32(len(footer)))
	if _, err := w.w.Write(trailer); err != nil {
		closeFile()
		return fmt.Errorf("tracefile: writing trailer: %w", err)
	}
	if err := closeFile(); err != nil {
		return fmt.Errorf("tracefile: closing file: %w", err)
	}
	return nil
}

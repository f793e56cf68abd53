package client

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"jiffy/internal/core"
	"jiffy/internal/ds"
)

// File is the client handle for a Jiffy file (§5.1): a sequence of
// fixed-size chunks, each stored in one block. Writes at arbitrary
// offsets are split at chunk boundaries; writing past the last chunk
// grows the file by requesting new blocks from the controller. Each
// handle tracks an append cursor for Append/Read streaming.
type File struct {
	h *handle

	mu     sync.Mutex
	wcur   int // append cursor
	rcur   int // sequential-read cursor
	maxEnd int // highest offset this handle has written
}

// Path returns the handle's address prefix.
func (f *File) Path() core.Path { return f.h.path }

// chunkSize reads the immutable chunk size from the map.
func (f *File) chunkSize() int {
	return f.h.snapshot().ChunkSize
}

// blockFor routes chunk index ci under the cached map: writes to the
// chain head, reads to the tail. A write past the last chunk reports
// ErrBlockFull against the tail block, so the recovery loop's scale
// arm grows the file by one chunk and retries.
func (f *File) blockFor(ci int, write bool) (core.BlockInfo, error) {
	m := f.h.snapshot()
	e, ok := m.BlockForChunk(ci)
	switch {
	case ok && e.Lost:
		return core.BlockInfo{}, lostErr(e)
	case ok && write:
		return e.WriteTarget(), nil
	case ok:
		return e.ReadTarget(), nil
	case !write:
		return core.BlockInfo{}, fmt.Errorf("client: file chunk %d: %w", ci, core.ErrNotFound)
	}
	last, ok := m.Tail()
	if !ok {
		return core.BlockInfo{}, core.ErrStaleEpoch
	}
	return last.Info, core.ErrBlockFull
}

// WriteAt writes data at an absolute file offset, spanning chunks as
// needed.
func (f *File) WriteAt(ctx context.Context, off int, data []byte) error {
	cs := f.chunkSize()
	if cs <= 0 {
		return fmt.Errorf("client: file has no chunk size")
	}
	for len(data) > 0 {
		ci := off / cs
		in := off % cs
		n := cs - in
		if n > len(data) {
			n = len(data)
		}
		if err := f.writeChunk(ctx, ci, in, data[:n]); err != nil {
			return err
		}
		off += n
		data = data[n:]
	}
	f.mu.Lock()
	if off > f.maxEnd {
		f.maxEnd = off
	}
	f.mu.Unlock()
	return nil
}

// writeChunk writes within one chunk, growing the file to reach it.
func (f *File) writeChunk(ctx context.Context, ci, in int, data []byte) error {
	args := [][]byte{ds.U64(uint64(in)), data}
	_, err := f.h.retry(ctx, core.OpFileWrite, "", func(map[string]bool) (core.BlockInfo, [][]byte, error) {
		at, err := f.blockFor(ci, true)
		if err != nil {
			return at, nil, err
		}
		res, err := f.h.do(ctx, at, core.OpFileWrite, args)
		return at, res, err
	}, f.h.refresh, f.h.scaleOnFull)
	return err
}

// Append writes data at this handle's append cursor and advances it.
func (f *File) Append(ctx context.Context, data []byte) (int, error) {
	f.mu.Lock()
	off := f.wcur
	f.wcur += len(data)
	f.mu.Unlock()
	if err := f.WriteAt(ctx, off, data); err != nil {
		return off, err
	}
	return off, nil
}

// ReadAt reads up to n bytes at an absolute offset; a short result
// means end of written data.
func (f *File) ReadAt(ctx context.Context, off, n int) ([]byte, error) {
	cs := f.chunkSize()
	if cs <= 0 {
		return nil, fmt.Errorf("client: file has no chunk size")
	}
	// Fast path: a read confined to one chunk returns the decoded
	// response slice directly instead of accumulating into a fresh
	// buffer — with the server's zero-copy view path this makes a
	// single-chunk read one copy end to end (socket → response buffer).
	if n > 0 && off/cs == (off+n-1)/cs {
		part, err := f.readChunk(ctx, off/cs, off%cs, n)
		if err != nil {
			if errors.Is(err, core.ErrNotFound) {
				return nil, nil // past the last chunk
			}
			return nil, err
		}
		return part, nil
	}
	out := make([]byte, 0, n)
	for n > 0 {
		ci := off / cs
		in := off % cs
		want := cs - in
		if want > n {
			want = n
		}
		part, err := f.readChunk(ctx, ci, in, want)
		if err != nil {
			if errors.Is(err, core.ErrNotFound) {
				break // past the last chunk
			}
			return out, err
		}
		out = append(out, part...)
		off += len(part)
		n -= len(part)
		if len(part) < want {
			break // hit this chunk's high-water mark
		}
	}
	return out, nil
}

// readChunk reads within one chunk. File reads are idempotent: they
// may hedge against another chain member when the tail is slow.
func (f *File) readChunk(ctx context.Context, ci, in, n int) ([]byte, error) {
	args := [][]byte{ds.U64(uint64(in)), ds.U64(uint64(n))}
	res, err := f.h.retry(ctx, core.OpFileRead, "", func(map[string]bool) (core.BlockInfo, [][]byte, error) {
		at, err := f.blockFor(ci, false)
		if err != nil {
			return at, nil, err
		}
		res, err := f.h.doRead(ctx, at, core.OpFileRead, args)
		return at, res, err
	}, f.h.refresh, nil)
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// Seek positions the sequential-read cursor (seek in §5.1).
func (f *File) Seek(off int) {
	f.mu.Lock()
	f.rcur = off
	f.mu.Unlock()
}

// Read reads up to n bytes at the read cursor and advances it.
func (f *File) Read(ctx context.Context, n int) ([]byte, error) {
	f.mu.Lock()
	off := f.rcur
	f.mu.Unlock()
	data, err := f.ReadAt(ctx, off, n)
	f.mu.Lock()
	f.rcur = off + len(data)
	f.mu.Unlock()
	return data, err
}

// AppendRecord atomically appends data to the file's tail chunk on the
// server side and returns the absolute offset it landed at. Unlike the
// cursor-based Append, AppendRecord is safe for many concurrent
// writers (MapReduce shuffle files, §5.1): the server serializes
// appends within a chunk, and records never straddle chunks — a record
// that does not fit moves whole to the next chunk.
func (f *File) AppendRecord(ctx context.Context, data []byte) (int, error) {
	cs := f.chunkSize()
	if cs <= 0 {
		return 0, fmt.Errorf("client: file has no chunk size")
	}
	chunk := 0
	res, err := f.h.retry(ctx, core.OpFileAppend, "", func(map[string]bool) (core.BlockInfo, [][]byte, error) {
		m := f.h.snapshot()
		tail, ok := m.Tail()
		if !ok {
			return core.BlockInfo{}, nil, fmt.Errorf("client: file has no chunks: %w", core.ErrNotFound)
		}
		chunk = tail.Chunk
		res, err := f.h.do(ctx, tail.Info, core.OpFileAppend, [][]byte{data})
		return tail.Info, res, err
	}, f.h.refresh, f.h.scaleOnFull)
	if err != nil {
		return 0, err
	}
	off, err := ds.ParseU64(res[0])
	if err != nil {
		return 0, err
	}
	return chunk*cs + int(off), nil
}

// Chunks returns the current number of chunks (after a refresh), so
// readers can scan chunk by chunk.
func (f *File) Chunks(ctx context.Context) (int, error) {
	if err := f.h.refresh(ctx); err != nil {
		return 0, err
	}
	m := f.h.snapshot()
	max := -1
	for _, e := range m.Blocks {
		if e.Chunk > max {
			max = e.Chunk
		}
	}
	return max + 1, nil
}

// ReadChunk reads one whole chunk's written bytes.
func (f *File) ReadChunk(ctx context.Context, ci int) ([]byte, error) {
	cs := f.chunkSize()
	if cs <= 0 {
		return nil, fmt.Errorf("client: file has no chunk size")
	}
	return f.readChunk(ctx, ci, 0, cs)
}

// Subscribe registers for notifications on the file's blocks.
func (f *File) Subscribe(ctx context.Context, ops ...core.OpType) (*Listener, error) {
	return f.h.c.subscribe(ctx, f.h, ops)
}

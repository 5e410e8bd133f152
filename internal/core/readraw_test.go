package core

// Tests for the remote raw read path of f-chunk objects: ReadRaw and
// ReadRawAsOf, reassembled the way a client does it, must give exactly the
// bytes the in-process Read gives under the same snapshot — on a cold pool
// (every block from the device, through the batched read-ahead) and on a
// warm one — and a cold read must cost one device call per read-ahead
// window, not one per chunk.

import (
	"bytes"
	"io"
	"math/rand"
	"path/filepath"
	"sync/atomic"
	"testing"

	"postlob/internal/adt"
	"postlob/internal/buffer"
	"postlob/internal/catalog"
	"postlob/internal/compress"
	"postlob/internal/heap"
	"postlob/internal/storage"
	"postlob/internal/txn"
)

// randBytes returns n incompressible bytes determined by seed.
func randBytes(n int, seed int64) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// writeAt writes data at off in a transaction of its own and returns its
// commit timestamp.
func writeAt(t *testing.T, s *Store, ref adt.ObjectRef, off int64, data []byte) txn.TS {
	t.Helper()
	tx := s.mgr().Begin()
	obj, err := s.Open(tx, ref)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := obj.Seek(off, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	if _, err := obj.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := obj.Close(); err != nil {
		t.Fatal(err)
	}
	ts, err := tx.Commit()
	if err != nil {
		t.Fatal(err)
	}
	return ts
}

// chill writes back and drops every buffered page of ref's relations, so
// the next read of ref starts from the device.
func chill(t *testing.T, s *Store, ref adt.ObjectRef) {
	t.Helper()
	meta, err := s.cat.Object(catalog.OID(ref.OID))
	if err != nil {
		t.Fatal(err)
	}
	for _, rel := range []storage.RelName{meta.DataRel, meta.IdxRel} {
		if err := s.pool.Buf.DropRel(meta.SM, rel, false); err != nil {
			t.Fatal(err)
		}
	}
}

// assemble rebuilds [off, end) from raw extents the way a client does:
// zeros, with each extent decoded into place.
func assemble(t *testing.T, exts []RawExtent, off, end int64) []byte {
	t.Helper()
	out := make([]byte, end-off)
	for _, e := range exts {
		dec, err := compress.Decode(e.Encoded)
		if err != nil {
			t.Fatal(err)
		}
		if e.LogStart < off || e.LogStart+int64(e.Take) > end || e.Skip+e.Take > len(dec) {
			t.Fatalf("extent at %d (skip %d take %d, %d decoded) outside [%d,%d)", e.LogStart, e.Skip, e.Take, len(dec), off, end)
		}
		copy(out[e.LogStart-off:], dec[e.Skip:e.Skip+e.Take])
	}
	return out
}

// checkRaw compares a raw reader against want, the in-process Read of the
// same snapshot, over a spread of ranges: first with ref's pages dropped
// from the pool before every read, then with the pool warm.
func checkRaw(t *testing.T, s *Store, ref adt.ObjectRef, want []byte, read func(off, n int64) ([]RawExtent, error)) {
	t.Helper()
	size := int64(len(want))
	cs := int64(s.chunkSize)
	ranges := [][2]int64{
		{0, size}, {0, size + 5*cs}, {cs / 2, 3 * cs}, {2 * cs, cs},
		{1, 1}, {size - 100, 1000}, {size / 3, size / 3}, {size, 10}, {0, 0},
	}
	for _, cold := range []bool{true, false} {
		for _, r := range ranges {
			off, n := r[0], r[1]
			if off < 0 {
				off = 0
			}
			if cold {
				chill(t, s, ref)
			}
			exts, err := read(off, n)
			if err != nil {
				t.Fatalf("cold=%v range (%d,%d): %v", cold, off, n, err)
			}
			end := min(off+n, size)
			if off >= end {
				if len(exts) != 0 {
					t.Fatalf("cold=%v empty range (%d,%d) returned %d extents", cold, off, n, len(exts))
				}
				continue
			}
			if got := assemble(t, exts, off, end); !bytes.Equal(got, want[off:end]) {
				t.Fatalf("cold=%v range (%d,%d): raw bytes differ from Read", cold, off, n)
			}
		}
	}
}

// checkAsOf checks ReadRawAsOf at ts against an as-of Read.
func checkAsOf(t *testing.T, s *Store, ref adt.ObjectRef, ts txn.TS) {
	t.Helper()
	h, err := s.OpenAsOf(ts, ref)
	if err != nil {
		t.Fatal(err)
	}
	want, err := io.ReadAll(h)
	h.Close()
	if err != nil {
		t.Fatal(err)
	}
	checkRaw(t, s, ref, want, func(off, n int64) ([]RawExtent, error) {
		return s.ReadRawAsOf(ts, ref, off, n)
	})
}

// checkLive checks ReadRaw in a fresh transaction against its Read.
func checkLive(t *testing.T, s *Store, ref adt.ObjectRef) {
	t.Helper()
	tx := s.mgr().Begin()
	defer tx.Abort()
	want := readAll(t, s, tx, ref)
	checkRaw(t, s, ref, want, func(off, n int64) ([]RawExtent, error) {
		return s.ReadRaw(tx, ref, off, n)
	})
}

// newestBlock returns the heap block of chunk seq's newest index entry.
func newestBlock(t *testing.T, s *Store, ref adt.ObjectRef, seq uint64) storage.BlockNum {
	t.Helper()
	h, err := s.OpenAsOf(s.mgr().Now(), ref)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	vals, err := h.(*fchunkObject).idx.Lookup(seq)
	if err != nil || len(vals) == 0 {
		t.Fatalf("chunk %d index entries: %v, %v", seq, vals, err)
	}
	return heap.DecodeTID(vals[len(vals)-1]).Blk
}

// visibleTID returns the TID of chunk seq's version visible now.
func visibleTID(t *testing.T, s *Store, ref adt.ObjectRef, seq uint64) heap.TID {
	t.Helper()
	h, err := s.OpenAsOf(s.mgr().Now(), ref)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	_, tid, err := h.(*fchunkObject).lookupVisible(seq)
	if err != nil {
		t.Fatal(err)
	}
	return tid
}

func TestReadRawOverwrittenChunksInLaterBlocks(t *testing.T) {
	for _, codec := range []string{"", "fast"} {
		t.Run("codec="+codec, func(t *testing.T) {
			s := newTestStore(t)
			cs := int64(s.chunkSize)
			tx := s.mgr().Begin()
			ref, obj, err := s.Create(tx, CreateOptions{Kind: adt.KindFChunk, Codec: codec})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := obj.Write(randBytes(int(20*cs), 1)); err != nil {
				t.Fatal(err)
			}
			obj.Close()
			ts1, err := tx.Commit()
			if err != nil {
				t.Fatal(err)
			}
			// Chunk 3's two new versions land past the original 20 blocks,
			// the object then grows, and chunk 7's new version lands past
			// the growth: both later than the originals, and apart.
			ts2 := writeAt(t, s, ref, 3*cs+10, randBytes(100, 2))
			ts3 := writeAt(t, s, ref, 3*cs, randBytes(50, 3))
			ts4 := writeAt(t, s, ref, 20*cs, randBytes(int(3*cs), 4))
			ts5 := writeAt(t, s, ref, 7*cs, randBytes(int(cs), 5))
			b3, b7 := newestBlock(t, s, ref, 3), newestBlock(t, s, ref, 7)
			if b3 < 20 || b7 < 20 || b3 == b7+1 || b7 == b3+1 {
				t.Fatalf("newest versions of chunks 3 and 7 in blocks %d and %d; want later than 20 and apart", b3, b7)
			}
			for _, ts := range []txn.TS{ts1, ts2, ts3, ts4, ts5} {
				checkAsOf(t, s, ref, ts)
			}
			checkLive(t, s, ref)
		})
	}
}

func TestReadRawSparseAndTruncated(t *testing.T) {
	s := newTestStore(t)
	cs := int64(s.chunkSize)
	tx := s.mgr().Begin()
	ref, obj, err := s.Create(tx, CreateOptions{Kind: adt.KindFChunk})
	if err != nil {
		t.Fatal(err)
	}
	// Chunks 0–4 and 7–8 are holes; chunk 9 holds 50 bytes.
	if _, err := obj.Seek(5*cs+100, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	if _, err := obj.Write(randBytes(int(cs), 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := obj.Seek(9*cs, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	if _, err := obj.Write(randBytes(50, 2)); err != nil {
		t.Fatal(err)
	}
	obj.Close()
	ts1, err := tx.Commit()
	if err != nil {
		t.Fatal(err)
	}

	// Cut into chunk 5, then extend: the tail past the cut reads as zeros.
	tx = s.mgr().Begin()
	obj, err = s.Open(tx, ref)
	if err != nil {
		t.Fatal(err)
	}
	if err := obj.Truncate(5*cs + 300); err != nil {
		t.Fatal(err)
	}
	if err := obj.Truncate(8 * cs); err != nil {
		t.Fatal(err)
	}
	obj.Close()
	ts2, err := tx.Commit()
	if err != nil {
		t.Fatal(err)
	}
	ts3 := writeAt(t, s, ref, 12*cs+7, randBytes(200, 3))
	for _, ts := range []txn.TS{ts1, ts2, ts3} {
		checkAsOf(t, s, ref, ts)
	}
	checkLive(t, s, ref)
}

func TestReadRawRecycledSlot(t *testing.T) {
	s := newTestStore(t)
	cs := s.chunkSize
	tx := s.mgr().Begin()
	ref, obj, err := s.Create(tx, CreateOptions{Kind: adt.KindFChunk})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := obj.Write(randBytes(4*cs, 1)); err != nil {
		t.Fatal(err)
	}
	obj.Close()
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	gen1 := map[heap.TID]bool{}
	for seq := uint64(0); seq < 4; seq++ {
		gen1[visibleTID(t, s, ref, seq)] = true
	}

	// Supersede every chunk, reclaim the first generation, and write a
	// third: its versions reuse the reclaimed slots, so stale index
	// entries now name slots holding other records.
	writeAll(t, s, ref, randBytes(4*cs, 2))
	v := s.StartVacuum(VacuumOptions{Manual: true, ReclaimHistory: true})
	defer v.Stop()
	if n, err := v.Round(); err != nil {
		t.Fatal(err)
	} else if n == 0 {
		t.Fatal("vacuum reclaimed nothing; the first generation should be dead")
	}
	ts3 := writeAt(t, s, ref, 0, randBytes(3*cs+77, 3))
	recycled := false
	for seq := uint64(0); seq < 4; seq++ {
		if gen1[visibleTID(t, s, ref, seq)] {
			recycled = true
		}
	}
	if !recycled {
		t.Skip("heap did not recycle a reclaimed slot; scenario not reproducible")
	}
	// As-of reads never prune; the live read prunes stale entries as it
	// goes, so it runs last.
	checkAsOf(t, s, ref, ts3)
	checkLive(t, s, ref)
}

// readCounter counts device read calls, single-block and batched alike,
// and the blocks they read of the relation named dataRel.
type readCounter struct {
	storage.Manager
	reads      atomic.Int64
	dataRel    storage.RelName
	dataBlocks atomic.Int64
}

func (c *readCounter) ReadBlock(rel storage.RelName, blk storage.BlockNum, buf []byte) error {
	c.reads.Add(1)
	if rel == c.dataRel {
		c.dataBlocks.Add(1)
	}
	return c.Manager.ReadBlock(rel, blk, buf)
}

func (c *readCounter) ReadBlocks(rel storage.RelName, blk storage.BlockNum, bufs [][]byte) error {
	c.reads.Add(1)
	if rel == c.dataRel {
		c.dataBlocks.Add(int64(len(bufs)))
	}
	return c.Manager.ReadBlocks(rel, blk, bufs)
}

// newCountingStore is newTestStore on a memory device whose reads rc
// counts.
func newCountingStore(t *testing.T) (*Store, *readCounter) {
	t.Helper()
	rc := &readCounter{Manager: storage.NewMemManager(storage.DeviceModel{}, nil)}
	sw := storage.NewSwitch()
	sw.Register(storage.Mem, rc)
	s := NewStore(&heap.Pool{Buf: buffer.NewPool(512, sw, nil), Mgr: txn.NewManager()},
		catalog.NewMemory(), adt.NewRegistry(), Config{FilesDir: filepath.Join(t.TempDir(), "pfiles"), DefaultSM: storage.Mem})
	return s, rc
}

func TestReadRawReadsAheadOnlyNewestVersions(t *testing.T) {
	s, rc := newCountingStore(t)
	cs := s.chunkSize
	const chunks = 4
	tx := s.mgr().Begin()
	ref, obj, err := s.Create(tx, CreateOptions{Kind: adt.KindFChunk})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := obj.Write(randBytes(chunks*cs, 1)); err != nil {
		t.Fatal(err)
	}
	obj.Close()
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// Three more generations, history kept: every chunk has four index
	// entries, each version in a block of its own.
	var ts txn.TS
	for gen := int64(2); gen <= 4; gen++ {
		ts = writeAt(t, s, ref, 0, randBytes(chunks*cs, gen))
	}
	meta, err := s.cat.Object(catalog.OID(ref.OID))
	if err != nil {
		t.Fatal(err)
	}
	rc.dataRel = meta.DataRel
	chill(t, s, ref)
	rc.dataBlocks.Store(0)
	exts, err := s.ReadRawAsOf(ts, ref, 0, chunks*int64(cs))
	if err != nil {
		t.Fatal(err)
	}
	want := readAll(t, s, s.mgr().Begin(), ref)
	if !bytes.Equal(assemble(t, exts, 0, int64(len(want))), want) {
		t.Fatal("cold raw read differs from Read")
	}
	// The newest version of each chunk, plus the block holding the size
	// record; none of the twelve superseded versions.
	if got := rc.dataBlocks.Load(); got > chunks+1 {
		t.Fatalf("cold raw read of %d chunks with 4 versions each read %d heap blocks, want at most %d", chunks, got, chunks+1)
	}
}

func TestReadRawColdReadBatchesDeviceCalls(t *testing.T) {
	s, rc := newCountingStore(t)

	const size = 512 << 10
	data := randBytes(size, 1)
	tx := s.mgr().Begin()
	ref, obj, err := s.Create(tx, CreateOptions{Kind: adt.KindFChunk})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := obj.Write(data); err != nil {
		t.Fatal(err)
	}
	obj.Close()
	ts, err := tx.Commit()
	if err != nil {
		t.Fatal(err)
	}
	chill(t, s, ref)
	rc.reads.Store(0)
	exts, err := s.ReadRawAsOf(ts, ref, 0, size)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(assemble(t, exts, 0, size), data) {
		t.Fatal("cold raw read differs from the written bytes")
	}
	chunks := (size + s.chunkSize - 1) / s.chunkSize
	limit := (chunks+buffer.DefaultPrefetchWindow-1)/buffer.DefaultPrefetchWindow + 4
	got := rc.reads.Load()
	t.Logf("cold raw read of %d chunks: %d device read calls", chunks, got)
	if got > int64(limit) {
		t.Fatalf("cold raw read of %d chunks made %d device read calls, want at most %d", chunks, got, limit)
	}
}

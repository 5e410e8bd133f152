package buffer

// Tests for the synchronous read-ahead path (ReadAhead), and for the miss
// paths' guard against installing a page image that a write-back
// overtook while the device read was in flight.

import (
	"sync"
	"sync/atomic"
	"testing"

	"postlob/internal/page"
	"postlob/internal/storage"
)

// countingMgr counts the manager calls the pool makes. afterRead, when
// set before the pool is used, runs after every block read has filled its
// buffers — a test parks a reader there to hold a device image in flight.
type countingMgr struct {
	storage.Manager
	readBlock, readBlocks, exists, nblocks atomic.Int64
	afterRead                              func(blk storage.BlockNum, n int)
}

func (c *countingMgr) ReadBlock(rel storage.RelName, blk storage.BlockNum, buf []byte) error {
	c.readBlock.Add(1)
	err := c.Manager.ReadBlock(rel, blk, buf)
	if c.afterRead != nil {
		c.afterRead(blk, 1)
	}
	return err
}

func (c *countingMgr) ReadBlocks(rel storage.RelName, blk storage.BlockNum, bufs [][]byte) error {
	c.readBlocks.Add(1)
	err := c.Manager.ReadBlocks(rel, blk, bufs)
	if c.afterRead != nil {
		c.afterRead(blk, len(bufs))
	}
	return err
}

func (c *countingMgr) Exists(rel storage.RelName) bool {
	c.exists.Add(1)
	return c.Manager.Exists(rel)
}

func (c *countingMgr) NBlocks(rel storage.RelName) (storage.BlockNum, error) {
	c.nblocks.Add(1)
	return c.Manager.NBlocks(rel)
}

func (c *countingMgr) calls() int64 {
	return c.readBlock.Load() + c.readBlocks.Load() + c.exists.Load() + c.nblocks.Load()
}

func (c *countingMgr) reset() {
	c.readBlock.Store(0)
	c.readBlocks.Store(0)
	c.exists.Store(0)
	c.nblocks.Store(0)
}

// newCountingPool builds a pool over a counting wrapper of a memory
// device holding n blocks of rel, block i's first byte being i+1. The
// pool already tracks rel, and the counters start at zero.
func newCountingPool(t *testing.T, frames, n int) (*Pool, *countingMgr) {
	t.Helper()
	mem := storage.NewMemManager(storage.DeviceModel{}, nil)
	if err := mem.Create(rel); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		img := make([]byte, page.Size)
		img[0] = byte(i + 1)
		if err := mem.WriteBlock(rel, storage.BlockNum(i), img); err != nil {
			t.Fatal(err)
		}
	}
	cm := &countingMgr{Manager: mem}
	sw := storage.NewSwitch()
	sw.Register(storage.Mem, cm)
	p := NewPool(frames, sw, nil)
	if _, err := p.NBlocks(storage.Mem, rel); err != nil {
		t.Fatal(err)
	}
	cm.reset()
	return p, cm
}

// firstByte returns block blk's first byte as read through the pool.
func firstByte(t *testing.T, p *Pool, blk storage.BlockNum) byte {
	t.Helper()
	f, err := p.Get(Tag{SM: storage.Mem, Rel: rel, Blk: blk})
	if err != nil {
		t.Fatalf("Get block %d: %v", blk, err)
	}
	defer f.Release()
	return f.Page()[0]
}

func TestReadAheadColdRangeBatchesPerWindow(t *testing.T) {
	p, cm := newCountingPool(t, 128, 40)
	p.ReadAhead(storage.Mem, rel, 0, 40)
	const want = (40 + DefaultPrefetchWindow - 1) / DefaultPrefetchWindow
	if got := cm.readBlocks.Load(); got != want {
		t.Fatalf("ReadBlocks calls = %d, want %d", got, want)
	}
	if got := cm.readBlock.Load(); got != 0 {
		t.Fatalf("ReadBlock calls = %d, want 0", got)
	}
	_, misses0 := p.Stats()
	for blk := storage.BlockNum(0); blk < 40; blk++ {
		if got := firstByte(t, p, blk); got != byte(blk+1) {
			t.Fatalf("block %d first byte = %d, want %d", blk, got, blk+1)
		}
	}
	if _, misses := p.Stats(); misses != misses0 {
		t.Fatalf("%d misses after read-ahead, want 0", misses-misses0)
	}
}

func TestReadAheadResidentRangeMakesNoDeviceCall(t *testing.T) {
	p, cm := newCountingPool(t, 64, 20)
	p.ReadAhead(storage.Mem, rel, 0, 20)
	cm.reset()
	p.ReadAhead(storage.Mem, rel, 0, 20)
	if got := cm.calls(); got != 0 {
		t.Fatalf("read-ahead of a resident range made %d manager calls (read %d, batch %d, exists %d, nblocks %d), want 0",
			got, cm.readBlock.Load(), cm.readBlocks.Load(), cm.exists.Load(), cm.nblocks.Load())
	}
}

func TestReadAheadSplitsRunsAtDirtyFrames(t *testing.T) {
	p, cm := newCountingPool(t, 64, 20)
	dirty := []storage.BlockNum{5, 6, 12}
	for _, blk := range dirty {
		f, err := p.Get(Tag{SM: storage.Mem, Rel: rel, Blk: blk})
		if err != nil {
			t.Fatal(err)
		}
		f.LockContent()
		f.Page()[0] = 0xEE
		f.MarkDirty()
		f.UnlockContent()
		f.Release()
	}
	cm.reset()
	p.ReadAhead(storage.Mem, rel, 0, 20)
	// Runs [0,5), [7,12) and [13,20).
	if got := cm.readBlocks.Load(); got != 3 {
		t.Fatalf("ReadBlocks calls = %d, want 3 (one per run between dirty frames)", got)
	}
	for _, blk := range dirty {
		if got := firstByte(t, p, blk); got != 0xEE {
			t.Fatalf("dirty block %d overwritten by read-ahead: first byte %#x", blk, got)
		}
	}
	if got := countDirty(p); got != len(dirty) {
		t.Fatalf("dirty frames = %d, want %d", got, len(dirty))
	}
}

func TestReadAheadPoolSmallerThanRun(t *testing.T) {
	p, _ := newCountingPool(t, 4, 40)
	p.ReadAhead(storage.Mem, rel, 0, 40)
	for blk := storage.BlockNum(0); blk < 40; blk++ {
		if got := firstByte(t, p, blk); got != byte(blk+1) {
			t.Fatalf("block %d first byte = %d, want %d", blk, got, blk+1)
		}
	}
}

// parkOnce makes the manager's first block read (of block blk) wait,
// its buffers already filled, until the returned resume is called; parked
// is closed once it waits.
func parkOnce(cm *countingMgr, blk storage.BlockNum) (parked chan struct{}, resume func()) {
	parked = make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	cm.afterRead = func(b storage.BlockNum, _ int) {
		if b != blk {
			return
		}
		first := false
		once.Do(func() { first = true })
		if first {
			close(parked)
			<-release
		}
	}
	return parked, func() { close(release) }
}

func TestReadAheadConcurrentDropRelLeavesNoGhost(t *testing.T) {
	p, cm := newCountingPool(t, 64, 8)
	parked, resume := parkOnce(cm, 0)
	installed := obsPfInstalled.Load()
	done := make(chan struct{})
	go func() {
		defer close(done)
		p.ReadAhead(storage.Mem, rel, 0, 8)
	}()
	<-parked
	if err := p.DropRel(storage.Mem, rel, true); err != nil {
		t.Error(err)
	}
	resume()
	<-done
	if got := obsPfInstalled.Load() - installed; got != 0 {
		t.Fatalf("read-ahead installed %d pages of a relation dropped under it", got)
	}
	for blk := storage.BlockNum(0); blk < 8; blk++ {
		if p.resident(Tag{SM: storage.Mem, Rel: rel, Blk: blk}) {
			t.Fatalf("ghost page for block %d after DropRel", blk)
		}
	}
}

// overwriteAndEvict runs, while another reader holds an old image of block
// 0 in flight, the sequence that makes that image stale: read block 0,
// change it, write it back, and evict it by reading block 1 through a pool
// with no other frame to spare.
func overwriteAndEvict(t *testing.T, p *Pool) {
	t.Helper()
	f, err := p.Get(Tag{SM: storage.Mem, Rel: rel, Blk: 0})
	if err != nil {
		t.Fatal(err)
	}
	f.LockContent()
	f.Page()[0] = 0xBB
	f.MarkDirty()
	f.UnlockContent()
	f.Release()
	if err := p.FlushRel(storage.Mem, rel); err != nil {
		t.Fatal(err)
	}
	firstByte(t, p, 1)
	if p.resident(Tag{SM: storage.Mem, Rel: rel, Blk: 0}) {
		t.Fatal("block 0 still resident; the test needs it evicted")
	}
}

func TestGetDiscardsImageOvertakenByWriteBack(t *testing.T) {
	// Two frames: the parked reader's, and one the overwriting goroutine
	// shares between block 0 and block 1 — reading block 1 evicts block 0.
	p, cm := newCountingPool(t, 2, 2)
	parked, resume := parkOnce(cm, 0)
	got := make(chan byte, 1)
	go func() {
		f, err := p.Get(Tag{SM: storage.Mem, Rel: rel, Blk: 0})
		if err != nil {
			t.Error(err)
			got <- 0
			return
		}
		got <- f.Page()[0]
		f.Release()
	}()
	<-parked
	overwriteAndEvict(t, p)
	resume()
	if b := <-got; b != 0xBB {
		t.Fatalf("parked Get returned first byte %#x, want the written-back 0xbb", b)
	}
	if b := firstByte(t, p, 0); b != 0xBB {
		t.Fatalf("block 0 first byte = %#x after the race, want 0xbb", b)
	}
}

func TestReadAheadDiscardsImageOvertakenByWriteBack(t *testing.T) {
	p, cm := newCountingPool(t, 2, 2)
	parked, resume := parkOnce(cm, 0)
	stale := obsPfStale.Load()
	done := make(chan struct{})
	go func() {
		defer close(done)
		p.ReadAhead(storage.Mem, rel, 0, 1)
	}()
	<-parked
	overwriteAndEvict(t, p)
	resume()
	<-done
	if got := obsPfStale.Load() - stale; got != 1 {
		t.Fatalf("stale read-ahead discards = %d, want 1", got)
	}
	if b := firstByte(t, p, 0); b != 0xBB {
		t.Fatalf("block 0 first byte = %#x after the race, want the written-back 0xbb", b)
	}
}

package storage

import (
	"bytes"
	"errors"
	"runtime"
	"testing"
	"time"

	"postlob/internal/page"
)

func pages(n int, fill byte) [][]byte {
	bufs := make([][]byte, n)
	for i := range bufs {
		bufs[i] = block(fill + byte(i))
	}
	return bufs
}

// TestVectoredConformance checks ReadBlocks/WriteBlocks against their
// single-block equivalents on every concrete manager.
func TestVectoredConformance(t *testing.T) {
	for name, mgr := range testManagers(t) {
		t.Run(name, func(t *testing.T) {
			defer mgr.Close()
			const rel = RelName("vec")
			if err := mgr.Create(rel); err != nil {
				t.Fatal(err)
			}

			// Appending gather write: 5 blocks in one batch on an empty
			// relation.
			if err := mgr.WriteBlocks(rel, 0, pages(5, 'a')); err != nil {
				t.Fatalf("WriteBlocks append: %v", err)
			}
			if n, _ := mgr.NBlocks(rel); n != 5 {
				t.Fatalf("NBlocks = %d, want 5", n)
			}

			// Scatter read of the interior.
			got := pages(3, 0)
			if err := mgr.ReadBlocks(rel, 1, got); err != nil {
				t.Fatalf("ReadBlocks: %v", err)
			}
			for i, buf := range got {
				if !bytes.Equal(buf, block('b'+byte(i))) {
					t.Fatalf("block %d mismatch after batch read", 1+i)
				}
			}

			// Overwrite-plus-append batch straddling the old end.
			if err := mgr.WriteBlocks(rel, 4, pages(2, 'x')); err != nil {
				t.Fatalf("WriteBlocks straddle: %v", err)
			}
			if n, _ := mgr.NBlocks(rel); n != 6 {
				t.Fatalf("NBlocks = %d, want 6", n)
			}
			one := block(0)
			if err := mgr.ReadBlock(rel, 5, one); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(one, block('y')) {
				t.Fatal("appended batch block mismatch")
			}

			// Past-end reads and writes fail like their scalar versions.
			if err := mgr.ReadBlocks(rel, 5, pages(2, 0)); !errors.Is(err, ErrBadBlock) {
				t.Fatalf("ReadBlocks past end: %v", err)
			}
			if err := mgr.WriteBlocks(rel, 8, pages(1, 0)); !errors.Is(err, ErrBadBlock) {
				t.Fatalf("WriteBlocks past end: %v", err)
			}

			// Short buffers are rejected.
			if err := mgr.ReadBlocks(rel, 0, [][]byte{make([]byte, 7)}); !errors.Is(err, ErrShortBuffer) {
				t.Fatalf("short buffer: %v", err)
			}

			// Empty batches are no-ops.
			if err := mgr.ReadBlocks(rel, 0, nil); err != nil {
				t.Fatalf("empty ReadBlocks: %v", err)
			}
			if err := mgr.WriteBlocks(rel, 0, nil); err != nil {
				t.Fatalf("empty WriteBlocks: %v", err)
			}
		})
	}
}

// TestVectoredFaultMidBatch verifies the fault wrapper injects per block, so
// an armed countdown fires inside a batch.
func TestVectoredFaultMidBatch(t *testing.T) {
	f := NewFaultManager(NewMemManager(DeviceModel{}, nil))
	const rel = RelName("vec")
	if err := f.Create(rel); err != nil {
		t.Fatal(err)
	}
	f.FailAfter(3)
	// Blocks 0..2 succeed, block 3 hits the injected fault.
	err := f.WriteBlocks(rel, 0, pages(6, 'a'))
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("WriteBlocks with armed countdown: %v", err)
	}
	if n, _ := f.NBlocks(rel); n != 3 {
		t.Fatalf("NBlocks after mid-batch fault = %d, want 3", n)
	}
	f.Heal()
	if err := f.WriteBlocks(rel, 3, pages(3, 'd')); err != nil {
		t.Fatalf("after heal: %v", err)
	}
}

// TestVectoredCrashMidBatch verifies the crash wrapper ticks per block, so a
// seeded crash point can land inside a batched write.
func TestVectoredCrashMidBatch(t *testing.T) {
	inner := NewMemManager(DeviceModel{}, nil)
	c := NewCrashManager(inner, CrashConfig{Seed: 1})
	const rel = RelName("vec")
	if err := c.Create(rel); err != nil {
		t.Fatal(err)
	}
	c.CrashAfter(2) // two per-block writes succeed, the third dies
	err := c.WriteBlocks(rel, 0, pages(4, 'a'))
	if !errors.Is(err, ErrCrashed) {
		t.Fatalf("WriteBlocks across crash point: %v", err)
	}
	if !c.Crashed() {
		t.Fatal("crash did not fire inside the batch")
	}
}

// TestVectoredLatencySingleSleep checks that the latency wrapper charges one
// positioning latency per batch, not one per block — the coalescing win.
func TestVectoredLatencySingleSleep(t *testing.T) {
	const lat = 20 * time.Millisecond
	l := NewLatencyManager(NewMemManager(DeviceModel{}, nil), lat, lat)
	const rel = RelName("vec")
	if err := l.Create(rel); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := l.WriteBlocks(rel, 0, pages(8, 'a')); err != nil {
		t.Fatal(err)
	}
	if err := l.ReadBlocks(rel, 0, pages(8, 0)); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el > 8*lat {
		t.Fatalf("batched ops took %v; per-block latency would be %v, batched should be ~%v", el, 16*lat, 2*lat)
	}
}

// TestDiskVectoredMatchesScalar does a byte-level cross-check on the disk
// manager, whose batch paths each make one positional I/O.
func TestDiskVectoredMatchesScalar(t *testing.T) {
	d, err := NewDiskManager(t.TempDir(), DeviceModel{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	const rel = RelName("vec")
	if err := d.Create(rel); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteBlocks(rel, 0, pages(9, '0')); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 9; i++ {
		buf := make([]byte, page.Size)
		if err := d.ReadBlock(rel, BlockNum(i), buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, block('0'+byte(i))) {
			t.Fatalf("scalar read of batch-written block %d mismatch", i)
		}
	}
}

// TestDiskVectoredReadAllocatesNoStaging checks that a batched disk read
// lands in the callers' buffers directly: a 16-block ReadBlocks allocates
// far less than one page, where a staging buffer would cost 16 pages.
func TestDiskVectoredReadAllocatesNoStaging(t *testing.T) {
	d, err := NewDiskManager(t.TempDir(), DeviceModel{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	const rel = RelName("vec")
	if err := d.Create(rel); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteBlocks(rel, 0, pages(16, 'a')); err != nil {
		t.Fatal(err)
	}
	bufs := pages(16, 0)
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if err := d.ReadBlocks(rel, 0, bufs); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= page.Size {
		t.Fatalf("16-block ReadBlocks allocated %d bytes per call, want < %d", per, page.Size)
	}
	for i, buf := range bufs {
		if !bytes.Equal(buf, block('a'+byte(i))) {
			t.Fatalf("block %d mismatch after batch read", i)
		}
	}
}

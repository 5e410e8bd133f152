package heap

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"postlob/internal/buffer"
	"postlob/internal/storage"
	"postlob/internal/txn"
)

func newTestPool(t *testing.T, frames int) *Pool {
	t.Helper()
	sw := storage.NewSwitch()
	sw.Register(storage.Mem, storage.NewMemManager(storage.DeviceModel{}, nil))
	disk, err := storage.NewDiskManager(t.TempDir(), storage.DeviceModel{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	sw.Register(storage.Disk, disk)
	return &Pool{Buf: buffer.NewPool(frames, sw, nil), Mgr: txn.NewManager()}
}

func mustCreate(t *testing.T, p *Pool, name string) *Relation {
	t.Helper()
	r, err := Create(p, storage.Mem, storage.RelName(name))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestInsertFetchCommit(t *testing.T) {
	p := newTestPool(t, 16)
	r := mustCreate(t, p, "emp")

	tx := p.Mgr.Begin()
	tid, err := r.Insert(tx, []byte("joe"))
	if err != nil {
		t.Fatal(err)
	}
	// Visible to self before commit.
	got, err := r.Fetch(tx, tid)
	if err != nil || string(got) != "joe" {
		t.Fatalf("self fetch = %q, %v", got, err)
	}
	// Invisible to a concurrent transaction.
	other := p.Mgr.Begin()
	if _, err := r.Fetch(other, tid); !errors.Is(err, ErrNotVisible) {
		t.Fatalf("concurrent fetch: %v", err)
	}
	other.Abort()
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// Visible after commit to a new transaction.
	later := p.Mgr.Begin()
	defer later.Abort()
	got, err = r.Fetch(later, tid)
	if err != nil || string(got) != "joe" {
		t.Fatalf("later fetch = %q, %v", got, err)
	}
}

// TestFetchPastEndIsNoTuple: a TID in a block the relation does not have
// (an index entry recovered without its heap block) reads as a vacant slot,
// not as an I/O error.
func TestFetchPastEndIsNoTuple(t *testing.T) {
	p := newTestPool(t, 16)
	r := mustCreate(t, p, "emp")
	tx := p.Mgr.Begin()
	defer tx.Abort()
	tid, err := r.Insert(tx, []byte("joe"))
	if err != nil {
		t.Fatal(err)
	}
	n, err := r.NBlocks()
	if err != nil {
		t.Fatal(err)
	}
	past := TID{Blk: n, Slot: tid.Slot}
	if _, err := r.FetchAny(past); !errors.Is(err, ErrNoTuple) {
		t.Fatalf("FetchAny past the end: %v", err)
	}
	if _, err := r.Fetch(tx, past); !errors.Is(err, ErrNoTuple) {
		t.Fatalf("Fetch past the end: %v", err)
	}
}

func TestAbortHidesInsert(t *testing.T) {
	p := newTestPool(t, 16)
	r := mustCreate(t, p, "emp")
	tx := p.Mgr.Begin()
	tid, err := r.Insert(tx, []byte("ghost"))
	if err != nil {
		t.Fatal(err)
	}
	tx.Abort()
	later := p.Mgr.Begin()
	defer later.Abort()
	if _, err := r.Fetch(later, tid); !errors.Is(err, ErrNotVisible) {
		t.Fatalf("fetch aborted insert: %v", err)
	}
}

func TestDeleteVisibilityAndSnapshots(t *testing.T) {
	p := newTestPool(t, 16)
	r := mustCreate(t, p, "emp")

	tid := mustInsertCommitted(t, p, r, "doomed")

	// Old snapshot taken before the delete keeps seeing the tuple.
	oldSnap := p.Mgr.Begin()
	defer oldSnap.Abort()

	del := p.Mgr.Begin()
	if err := r.Delete(del, tid); err != nil {
		t.Fatal(err)
	}
	// Deleter no longer sees it.
	if _, err := r.Fetch(del, tid); !errors.Is(err, ErrNotVisible) {
		t.Fatalf("deleter still sees tuple: %v", err)
	}
	// Uncommitted delete: others still see it.
	if got, err := r.Fetch(oldSnap, tid); err != nil || string(got) != "doomed" {
		t.Fatalf("oldSnap fetch = %q, %v", got, err)
	}
	if _, err := del.Commit(); err != nil {
		t.Fatal(err)
	}
	// Snapshot predating the delete still sees it (snapshot isolation).
	if got, err := r.Fetch(oldSnap, tid); err != nil || string(got) != "doomed" {
		t.Fatalf("oldSnap post-commit fetch = %q, %v", got, err)
	}
	// New snapshot does not.
	fresh := p.Mgr.Begin()
	defer fresh.Abort()
	if _, err := r.Fetch(fresh, tid); !errors.Is(err, ErrNotVisible) {
		t.Fatalf("fresh fetch: %v", err)
	}
}

func TestAbortedDeleteLeavesTuple(t *testing.T) {
	p := newTestPool(t, 16)
	r := mustCreate(t, p, "emp")
	tid := mustInsertCommitted(t, p, r, "survivor")

	del := p.Mgr.Begin()
	if err := r.Delete(del, tid); err != nil {
		t.Fatal(err)
	}
	del.Abort()

	fresh := p.Mgr.Begin()
	defer fresh.Abort()
	got, err := r.Fetch(fresh, tid)
	if err != nil || string(got) != "survivor" {
		t.Fatalf("fetch after aborted delete = %q, %v", got, err)
	}
	// And the tuple can be deleted again.
	del2 := p.Mgr.Begin()
	if err := r.Delete(del2, tid); err != nil {
		t.Fatalf("re-delete after abort: %v", err)
	}
	del2.Commit()
}

func TestDoubleDeleteRejected(t *testing.T) {
	p := newTestPool(t, 16)
	r := mustCreate(t, p, "emp")
	tid := mustInsertCommitted(t, p, r, "x")

	d1 := p.Mgr.Begin()
	if err := r.Delete(d1, tid); err != nil {
		t.Fatal(err)
	}
	d1.Commit()
	d2 := p.Mgr.Begin()
	defer d2.Abort()
	if err := r.Delete(d2, tid); !errors.Is(err, ErrNotVisible) {
		t.Fatalf("double delete: %v", err)
	}
}

func TestReplaceCreatesNewVersion(t *testing.T) {
	p := newTestPool(t, 16)
	r := mustCreate(t, p, "emp")
	tid := mustInsertCommitted(t, p, r, "v1")

	up := p.Mgr.Begin()
	tid2, err := r.Replace(up, tid, []byte("v2"))
	if err != nil {
		t.Fatal(err)
	}
	if tid2 == tid {
		t.Fatal("replace reused the TID: overwrite!")
	}
	up.Commit()

	fresh := p.Mgr.Begin()
	defer fresh.Abort()
	if _, err := r.Fetch(fresh, tid); !errors.Is(err, ErrNotVisible) {
		t.Fatalf("old version visible: %v", err)
	}
	got, err := r.Fetch(fresh, tid2)
	if err != nil || string(got) != "v2" {
		t.Fatalf("new version = %q, %v", got, err)
	}
}

func TestTimeTravel(t *testing.T) {
	p := newTestPool(t, 16)
	r := mustCreate(t, p, "emp")

	// Epoch 1: insert v1.
	t1 := p.Mgr.Begin()
	tid, err := r.Insert(t1, []byte("v1"))
	if err != nil {
		t.Fatal(err)
	}
	ts1, _ := t1.Commit()

	// Epoch 2: replace with v2.
	t2 := p.Mgr.Begin()
	tid2, err := r.Replace(t2, tid, []byte("v2"))
	if err != nil {
		t.Fatal(err)
	}
	ts2, _ := t2.Commit()

	// Epoch 3: delete entirely.
	t3 := p.Mgr.Begin()
	if err := r.Delete(t3, tid2); err != nil {
		t.Fatal(err)
	}
	ts3, _ := t3.Commit()

	// As of ts1 we see v1 at the old TID.
	if got, err := r.FetchAsOf(ts1, tid); err != nil || string(got) != "v1" {
		t.Fatalf("asof ts1 = %q, %v", got, err)
	}
	if _, err := r.FetchAsOf(ts1, tid2); !errors.Is(err, ErrNotVisible) {
		t.Fatalf("v2 visible at ts1: %v", err)
	}
	// As of ts2: v2 only.
	if _, err := r.FetchAsOf(ts2, tid); !errors.Is(err, ErrNotVisible) {
		t.Fatalf("v1 visible at ts2: %v", err)
	}
	if got, err := r.FetchAsOf(ts2, tid2); err != nil || string(got) != "v2" {
		t.Fatalf("asof ts2 = %q, %v", got, err)
	}
	// As of ts3: nothing.
	if _, err := r.FetchAsOf(ts3, tid2); !errors.Is(err, ErrNotVisible) {
		t.Fatalf("v2 visible at ts3: %v", err)
	}
	// Before any commit: nothing.
	if _, err := r.FetchAsOf(txn.InvalidTS, tid); !errors.Is(err, ErrNotVisible) {
		t.Fatalf("v1 visible at t=0: %v", err)
	}
}

func TestScanVisibleOnly(t *testing.T) {
	p := newTestPool(t, 16)
	r := mustCreate(t, p, "emp")
	for i := 0; i < 5; i++ {
		mustInsertCommitted(t, p, r, fmt.Sprintf("row%d", i))
	}
	// One aborted row and one in-progress row must not appear.
	ab := p.Mgr.Begin()
	if _, err := r.Insert(ab, []byte("aborted")); err != nil {
		t.Fatal(err)
	}
	ab.Abort()
	inflight := p.Mgr.Begin()
	defer inflight.Abort()
	if _, err := r.Insert(inflight, []byte("inflight")); err != nil {
		t.Fatal(err)
	}

	reader := p.Mgr.Begin()
	defer reader.Abort()
	var rows []string
	err := r.Scan(reader, func(tid TID, data []byte) (bool, error) {
		rows = append(rows, string(data))
		return true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("scan rows = %v", rows)
	}
}

func TestScanAsOfSeesHistory(t *testing.T) {
	p := newTestPool(t, 16)
	r := mustCreate(t, p, "emp")
	tidOld := mustInsertCommitted(t, p, r, "old")
	ts := p.Mgr.Now()
	up := p.Mgr.Begin()
	if _, err := r.Replace(up, tidOld, []byte("new")); err != nil {
		t.Fatal(err)
	}
	up.Commit()

	var rows []string
	if err := r.ScanAsOf(ts, func(tid TID, data []byte) (bool, error) {
		rows = append(rows, string(data))
		return true, nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0] != "old" {
		t.Fatalf("asof scan = %v", rows)
	}
}

func TestVacuum(t *testing.T) {
	p := newTestPool(t, 16)
	r := mustCreate(t, p, "emp")

	keep := mustInsertCommitted(t, p, r, "keep")
	dead := mustInsertCommitted(t, p, r, "dead")
	ab := p.Mgr.Begin()
	if _, err := r.Insert(ab, []byte("aborted")); err != nil {
		t.Fatal(err)
	}
	ab.Abort()
	del := p.Mgr.Begin()
	if err := r.Delete(del, dead); err != nil {
		t.Fatal(err)
	}
	del.Commit()

	// History-preserving vacuum removes only aborted debris.
	n, err := r.Vacuum(true)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("vacuum(keep) removed %d, want 1", n)
	}
	// Full vacuum removes the committed-deleted version too.
	n, err = r.Vacuum(false)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("vacuum(full) removed %d, want 1", n)
	}
	fresh := p.Mgr.Begin()
	defer fresh.Abort()
	if got, err := r.Fetch(fresh, keep); err != nil || string(got) != "keep" {
		t.Fatalf("survivor = %q, %v", got, err)
	}
}

func TestTupleTooBig(t *testing.T) {
	p := newTestPool(t, 16)
	r := mustCreate(t, p, "emp")
	tx := p.Mgr.Begin()
	defer tx.Abort()
	if _, err := r.Insert(tx, make([]byte, MaxTupleSize+1)); !errors.Is(err, ErrTupleTooBig) {
		t.Fatalf("err = %v", err)
	}
	// Exactly max fits.
	if _, err := r.Insert(tx, make([]byte, MaxTupleSize)); err != nil {
		t.Fatalf("max tuple rejected: %v", err)
	}
}

func TestMultiPageSpill(t *testing.T) {
	p := newTestPool(t, 32)
	r := mustCreate(t, p, "emp")
	tx := p.Mgr.Begin()
	payload := make([]byte, 3000)
	var tids []TID
	for i := 0; i < 20; i++ { // 2 per page -> 10 pages
		payload[0] = byte(i)
		tid, err := r.Insert(tx, payload)
		if err != nil {
			t.Fatal(err)
		}
		tids = append(tids, tid)
	}
	tx.Commit()
	n, _ := r.NBlocks()
	if n < 5 {
		t.Fatalf("NBlocks = %d, want multi-page", n)
	}
	reader := p.Mgr.Begin()
	defer reader.Abort()
	for i, tid := range tids {
		got, err := r.Fetch(reader, tid)
		if err != nil || got[0] != byte(i) {
			t.Fatalf("tuple %d = %v, %v", i, got[:1], err)
		}
	}
}

func TestHintBitsSurviveManagerForgetting(t *testing.T) {
	// Hint bits must make visibility independent of repeated log lookups;
	// exercise by fetching twice and ensuring consistent answers.
	p := newTestPool(t, 16)
	r := mustCreate(t, p, "emp")
	tid := mustInsertCommitted(t, p, r, "hinted")
	for i := 0; i < 3; i++ {
		tx := p.Mgr.Begin()
		if got, err := r.Fetch(tx, tid); err != nil || string(got) != "hinted" {
			t.Fatalf("iter %d: %q, %v", i, got, err)
		}
		tx.Abort()
	}
}

// TestRandomizedVersionHistory drives inserts/replaces/deletes and validates
// current and historical states against a reference model.
func TestRandomizedVersionHistory(t *testing.T) {
	p := newTestPool(t, 64)
	r := mustCreate(t, p, "hist")
	rng := rand.New(rand.NewSource(7))

	type live struct {
		tid  TID
		data []byte
	}
	var current []live               // committed live tuples
	history := map[txn.TS][][]byte{} // snapshot of committed data at each TS
	snapshotNow := func() [][]byte {
		out := make([][]byte, len(current))
		for i, l := range current {
			out[i] = l.data
		}
		return out
	}

	for step := 0; step < 150; step++ {
		tx := p.Mgr.Begin()
		op := rng.Intn(3)
		switch {
		case op == 0 || len(current) == 0: // insert
			data := []byte(fmt.Sprintf("d%04d", step))
			tid, err := r.Insert(tx, data)
			if err != nil {
				t.Fatal(err)
			}
			if rng.Intn(5) == 0 {
				tx.Abort()
			} else {
				ts, _ := tx.Commit()
				current = append(current, live{tid, data})
				history[ts] = snapshotNow()
			}
		case op == 1: // delete
			i := rng.Intn(len(current))
			if err := r.Delete(tx, current[i].tid); err != nil {
				t.Fatal(err)
			}
			if rng.Intn(5) == 0 {
				tx.Abort()
			} else {
				ts, _ := tx.Commit()
				current = append(current[:i], current[i+1:]...)
				history[ts] = snapshotNow()
			}
		default: // replace
			i := rng.Intn(len(current))
			data := []byte(fmt.Sprintf("r%04d", step))
			tid, err := r.Replace(tx, current[i].tid, data)
			if err != nil {
				t.Fatal(err)
			}
			if rng.Intn(5) == 0 {
				tx.Abort()
			} else {
				ts, _ := tx.Commit()
				current[i] = live{tid, data}
				history[ts] = snapshotNow()
			}
		}
	}

	// Current state matches.
	reader := p.Mgr.Begin()
	defer reader.Abort()
	got := map[string]int{}
	if err := r.Scan(reader, func(tid TID, data []byte) (bool, error) {
		got[string(data)]++
		return true, nil
	}); err != nil {
		t.Fatal(err)
	}
	want := map[string]int{}
	for _, l := range current {
		want[string(l.data)]++
	}
	if len(got) != len(want) {
		t.Fatalf("live set: got %d distinct, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("live[%q] = %d, want %d", k, got[k], v)
		}
	}

	// Every historical snapshot reproducible via ScanAsOf.
	for ts, snap := range history {
		gotH := map[string]int{}
		if err := r.ScanAsOf(ts, func(tid TID, data []byte) (bool, error) {
			gotH[string(data)]++
			return true, nil
		}); err != nil {
			t.Fatal(err)
		}
		wantH := map[string]int{}
		for _, d := range snap {
			wantH[string(d)]++
		}
		if len(gotH) != len(wantH) {
			t.Fatalf("asof %d: got %d distinct, want %d", ts, len(gotH), len(wantH))
		}
		for k, v := range wantH {
			if gotH[k] != v {
				t.Fatalf("asof %d [%q] = %d, want %d", ts, k, gotH[k], v)
			}
		}
	}
}

func TestDiskBackedRelationPersists(t *testing.T) {
	sw := storage.NewSwitch()
	dir := t.TempDir()
	disk, err := storage.NewDiskManager(dir, storage.DeviceModel{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	sw.Register(storage.Disk, disk)
	p := &Pool{Buf: buffer.NewPool(8, sw, nil), Mgr: txn.NewManager()}

	r, err := Create(p, storage.Disk, "persist")
	if err != nil {
		t.Fatal(err)
	}
	tx := p.Mgr.Begin()
	tid, err := r.Insert(tx, []byte("durable"))
	if err != nil {
		t.Fatal(err)
	}
	tx.Commit()
	if err := flushRelation(r); err != nil {
		t.Fatal(err)
	}

	// Reopen through a fresh pool sharing the txn manager (the commit log
	// would be persisted by the database layer).
	p2 := &Pool{Buf: buffer.NewPool(8, sw, nil), Mgr: p.Mgr}
	r2, err := Open(p2, storage.Disk, "persist")
	if err != nil {
		t.Fatal(err)
	}
	tx2 := p2.Mgr.Begin()
	defer tx2.Abort()
	got, err := r2.Fetch(tx2, tid)
	if err != nil || !bytes.Equal(got, []byte("durable")) {
		t.Fatalf("reopened fetch = %q, %v", got, err)
	}
}

func mustInsertCommitted(t *testing.T, p *Pool, r *Relation, s string) TID {
	t.Helper()
	tx := p.Mgr.Begin()
	tid, err := r.Insert(tx, []byte(s))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return tid
}

// flushRelation writes the relation's dirty pages out and syncs the device.
// Production code checkpoints through core so the WAL flush ceiling is
// honored (see the walorder analyzer); tests flush directly.
func flushRelation(r *Relation) error {
	if err := r.pool.Buf.FlushRel(r.sm, r.name); err != nil {
		return err
	}
	mgr, err := r.pool.Buf.Switch().Get(r.sm)
	if err != nil {
		return err
	}
	return mgr.Sync(r.name)
}

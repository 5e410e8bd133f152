package main

import (
	"bytes"
	"fmt"
	"io/fs"
	"math/rand"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"postlob"
	"postlob/internal/client"
	"postlob/internal/compress"
	"postlob/internal/storage"
)

// The read workloads: two closed-loop v2 clients, one connection each,
// over 64 objects of 512 KiB. Each op is OpenAsOf(snapshot) + ReadTo +
// Close; one op in eight reads the whole object, seven read a random
// 8 KiB range.
const (
	readObjects   = 64
	readObjBytes  = 512 << 10
	readRange     = 8 << 10
	readClients   = 2
	wholeOneIn    = 8
	coldReadDelay = 200 * time.Microsecond
)

// readConfig is one read workload.
type readConfig struct {
	seed      int64
	poolPages int
	// readLatency, when non-zero, wraps the disk manager in
	// storage.NewLatencyManager with that per-block read latency.
	readLatency time.Duration
	// vsegHalf stores the odd-numbered objects as v-segments with the fast
	// codec; otherwise every object is a raw f-chunk.
	vsegHalf     bool
	compressible float64
}

func readHot(seed int64) *readConfig {
	return &readConfig{seed: seed, poolPages: 8192, vsegHalf: true, compressible: 0.5}
}

func readCold(seed int64) *readConfig {
	return &readConfig{seed: seed, poolPages: 1024, readLatency: coldReadDelay}
}

func (c *readConfig) stamp() map[string]any {
	device := "DiskManager on real files (OS page cache); no modelled latency"
	if c.readLatency > 0 {
		device = fmt.Sprintf("DiskManager wrapped in storage.NewLatencyManager: %v per block read, 0 per write", c.readLatency)
	}
	kinds := "all f-chunk, raw"
	if c.vsegHalf {
		kinds = "half f-chunk raw, half v-segment with the fast codec"
	}
	return map[string]any{
		"protocol":     "v2 stream (internal/client.DialStream -> gateway.ServeStream)",
		"clients":      fmt.Sprintf("%d closed-loop, one connection each", readClients),
		"objects":      fmt.Sprintf("%d x %d KiB, %s, compress.GenFrame compressible=%.1f", readObjects, readObjBytes>>10, kinds, c.compressible),
		"pool_pages":   fmt.Sprintf("%d (%d MiB)", c.poolPages, c.poolPages*8192>>20),
		"device":       device,
		"flush_policy": "DurabilityCheckpoint; one checkpoint after seeding, none while reading",
		"op_mix":       fmt.Sprintf("OpenAsOf+ReadTo+Close; 1 in %d whole object, else a random %d KiB range", wholeOneIn, readRange>>10),
	}
}

// readInst is a set-up read workload.
type readInst struct {
	cfg     *readConfig
	dir     string
	db      *postlob.DB
	gw      *postlob.Gateway
	dm      *devMeter
	nm      *netMeter
	clients []*client.Stream
	refs    []postlob.ObjectRef
	ts      postlob.TS
	oracle  []byte // every object's content, outside the Go heap
	fpF     int64  // bytes stored by the f-chunk half
	fpV     int64  // bytes stored by the v-segment half
	phase   int64  // distinguishes the op streams of successive phases
}

func (c *readConfig) setup(dir string) (instance, error) {
	in := &readInst{cfg: c, dir: dir, dm: &devMeter{}}
	oracle, err := syscall.Mmap(-1, 0, readObjects*readObjBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("oracle mapping: %w", err)
	}
	in.oracle = oracle
	ok := false
	defer func() {
		if !ok {
			in.close()
		}
	}()

	in.db, err = postlob.Open(dir, postlob.Options{
		BufferPoolPages: c.poolPages,
		WrapStorage: func(id storage.ID, mgr storage.Manager) storage.Manager {
			if id != storage.Disk {
				return mgr
			}
			if c.readLatency > 0 {
				mgr = storage.NewLatencyManager(mgr, c.readLatency, 0)
			}
			in.dm.inner = mgr
			return in.dm
		},
	})
	if err != nil {
		return nil, err
	}

	// Seed the objects in one transaction, then checkpoint so every page
	// is on the device.
	tx := in.db.Begin()
	for i := 0; i < readObjects; i++ {
		opts := postlob.CreateOptions{Kind: postlob.FChunk}
		if c.vsegHalf && i%2 == 1 {
			opts = postlob.CreateOptions{Kind: postlob.VSegment, Codec: "fast"}
		}
		ref, obj, err := in.db.LargeObjects().Create(tx, opts)
		if err != nil {
			tx.Abort()
			return nil, err
		}
		data := in.object(i)
		copy(data, compress.GenFrame(mix(c.seed, int64(i)), readObjBytes, c.compressible))
		if _, err := obj.Write(data); err != nil {
			obj.Close()
			tx.Abort()
			return nil, err
		}
		if err := obj.Close(); err != nil {
			tx.Abort()
			return nil, err
		}
		in.refs = append(in.refs, ref)
	}
	if _, err := tx.Commit(); err != nil {
		return nil, err
	}
	if err := in.db.Checkpoint(); err != nil {
		return nil, err
	}
	in.ts = in.db.Now()
	for i, ref := range in.refs {
		fp, err := in.db.LargeObjects().Footprint(ref)
		if err != nil {
			return nil, err
		}
		if c.vsegHalf && i%2 == 1 {
			in.fpV += fp.Total()
		} else {
			in.fpF += fp.Total()
		}
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	in.nm = &netMeter{Listener: ln}
	in.gw = in.db.NewGateway(postlob.GatewayOptions{})
	go in.gw.ServeStream(in.nm)
	for i := 0; i < readClients; i++ {
		s, err := client.DialStream(ln.Addr().String())
		if err != nil {
			return nil, err
		}
		in.clients = append(in.clients, s)
	}

	// Warm: read every object whole once, checking it.
	for i := range in.refs {
		if _, err := in.readOp(in.clients[0], readOp{obj: i, off: 0, n: readObjBytes}); err != nil {
			return nil, fmt.Errorf("warm read of object %d: %w", i, err)
		}
	}
	ok = true
	return in, nil
}

func (in *readInst) object(i int) []byte {
	return in.oracle[i*readObjBytes : (i+1)*readObjBytes]
}

// readOp is one generated read.
type readOp struct {
	obj    int
	off, n int64
}

func (op readOp) whole() bool { return op.n == readObjBytes }

// genOp draws the next op of the mix.
func genOp(rng *rand.Rand) readOp {
	obj := rng.Intn(readObjects)
	if rng.Intn(wholeOneIn) == 0 {
		return readOp{obj: obj, off: 0, n: readObjBytes}
	}
	return readOp{obj: obj, off: rng.Int63n(readObjBytes - readRange + 1), n: readRange}
}

// checkWriter compares a streamed read against the expected bytes as
// they arrive, without keeping them.
type checkWriter struct {
	want []byte
	pos  int
	bad  bool
}

func (w *checkWriter) Write(p []byte) (int, error) {
	end := w.pos + len(p)
	if end > len(w.want) || !bytes.Equal(p, w.want[w.pos:end]) {
		w.bad = true
	}
	w.pos = end
	return len(p), nil
}

// readOp runs one op on s and checks every returned byte.
func (in *readInst) readOp(s *client.Stream, op readOp) (int64, error) {
	o, err := s.OpenAsOf(in.ts, in.refs[op.obj])
	if err != nil {
		return 0, err
	}
	w := &checkWriter{want: in.object(op.obj)[op.off : op.off+op.n]}
	n, err := o.ReadTo(w, op.off, op.n)
	if cerr := o.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return n, err
	}
	if n != op.n || w.pos != int(op.n) || w.bad {
		return n, fmt.Errorf("object %d [%d,+%d): wrong bytes (got %d bytes)", op.obj, op.off, op.n, n)
	}
	return n, nil
}

// clientTally is one client's view of a phase.
type clientTally struct {
	ops       []opRec
	attempted int64
	failed    int64
	problems  []string
}

// merge adds every client's tally to rep and returns their ops.
func merge(rep *report, tallies ...*clientTally) []opRec {
	var ops []opRec
	for _, t := range tallies {
		ops = append(ops, t.ops...)
		rep.attempted += t.attempted
		rep.failed += t.failed
		for _, p := range t.problems {
			rep.fail("%s", p)
		}
	}
	return ops
}

func (in *readInst) load(d time.Duration, rep *report) error {
	in.phase++
	a := takeProbe(in.db, in.dm, in.nm)
	lobA := make([]int64, len(in.clients))
	for i, s := range in.clients {
		lobA[i] = s.LOBBytesIn()
	}
	in.gw.ResetChunkBufferHWM()
	start := time.Now()
	smp := startSampler(start)
	deadline := start.Add(d)
	tallies := make([]*clientTally, len(in.clients))
	var wg sync.WaitGroup
	for i := range in.clients {
		tallies[i] = &clientTally{}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			t := tallies[i]
			rng := rand.New(rand.NewSource(mix(in.cfg.seed, 1000*in.phase+int64(i))))
			for time.Now().Before(deadline) {
				op := genOp(rng)
				t0 := time.Now()
				t.attempted++
				n, err := in.readOp(in.clients[i], op)
				end := time.Now()
				if err != nil {
					t.failed++
					t.problems = append(t.problems, err.Error())
					continue
				}
				kind := opRange
				if op.whole() {
					kind = opGet
				}
				t.ops = append(t.ops, opRec{end: end.Sub(start), lat: end.Sub(t0), kind: kind, bytes: n})
			}
		}(i)
	}
	wg.Wait()
	wins := smp.Stop()
	b := takeProbe(in.db, in.dm, in.nm)

	ops := merge(rep, tallies...)
	if len(ops) == 0 {
		return fmt.Errorf("no op completed")
	}
	tot := totals(ops)
	var clientLOB int64
	for i, s := range in.clients {
		clientLOB += s.LOBBytesIn() - lobA[i]
	}
	// Byte conservation: what the gateway says it streamed is what the
	// clients assembled, and what the clients checked.
	if out := b.obs.CounterDelta(a.obs, "gateway.stream.bytes_out"); out != clientLOB || clientLOB != tot.lobBytes {
		rep.fail("gateway.stream.bytes_out delta %d, clients' LOBBytesIn %d, checked bytes %d", out, clientLOB, tot.lobBytes)
	}

	recordPhase(rep, a, b, tot)
	windowMetrics(rep, ops, wins)
	tailMetrics(rep, ops)
	rep.setRatio("gateway.round_trips_per_op", deltaRatio(
		a.obs.Counter("gateway.stream.requests"), b.obs.Counter("gateway.stream.requests"), "gateway.stream.requests",
		0, tot.ops, "ops"), "count")
	handlerMsPerOp(rep, a.obs, b.obs, tot.ops, "gateway.stream.rpc.open", "gateway.stream.rpc.rawread", "gateway.stream.rpc.close")
	rep.set("gateway.rpc.open_mean_ms", histDelta(a.obs, b.obs, "gateway.stream.rpc.open").meanMs(), "ms")
	rep.set("gateway.rpc.rawread_mean_ms", histDelta(a.obs, b.obs, "gateway.stream.rpc.rawread").meanMs(), "ms")
	rep.set("gateway.chunk.buffered_hwm", float64(in.gw.ChunkBufferHWM()), "bytes")
	// No writes, no WAL and no replica here: the replica's lag reads zero.
	rep.set("repl.lag_bytes_p95", 0, "bytes")
	return nil
}

func (in *readInst) serial(d time.Duration, n int, tr *tracer) ([]time.Duration, error) {
	s := in.clients[0]
	rng := rand.New(rand.NewSource(mix(in.cfg.seed, -7)))
	if tr != nil {
		in.dm.tr.Store(tr)
		in.nm.tr.Store(tr)
		defer in.dm.tr.Store(nil)
		defer in.nm.tr.Store(nil)
	}
	var lats []time.Duration
	deadline := time.Now().Add(d)
	for i := 0; ; i++ {
		if (n > 0 && i >= n) || (n == 0 && !time.Now().Before(deadline)) {
			break
		}
		op := genOp(rng)
		start := time.Now()
		if _, err := in.readOp(s, op); err != nil {
			return nil, err
		}
		if tr != nil {
			tr.add(spanRoot, start)
		}
		lats = append(lats, time.Since(start))
	}
	return lats, nil
}

func (in *readInst) finish(rep *report) error {
	// The paper's Figure 1 shape: compressed v-segments store fewer bytes
	// than raw f-chunks of the same data.
	if in.cfg.vsegHalf && in.fpV >= in.fpF {
		rep.fail("v-segment half stores %d bytes, f-chunk half %d: want fewer", in.fpV, in.fpF)
	}
	if in.cfg.vsegHalf {
		rep.set("footprint.fchunk_half_mb", float64(in.fpF)/(1<<20), "MiB")
		rep.set("footprint.vsegment_half_mb", float64(in.fpV)/(1<<20), "MiB")
	}
	if err := in.db.Checkpoint(); err != nil {
		return err
	}
	dev, err := dirBytes(rep, in.dir)
	if err != nil {
		return err
	}
	rep.setRatio("space_amp", ratio{
		Num: float64(dev), NumFrom: "device bytes",
		Den: float64(readObjects * readObjBytes), DenFrom: "live user bytes",
	}, "ratio")
	return nil
}

func (in *readInst) close() error {
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	for _, s := range in.clients {
		s.Close()
	}
	in.clients = nil
	if in.gw != nil {
		keep(in.gw.Close())
		in.gw = nil
	}
	if in.db != nil {
		keep(in.db.Close())
		in.db = nil
	}
	if in.oracle != nil {
		keep(syscall.Munmap(in.oracle))
		in.oracle = nil
	}
	return first
}

// dirBytes sums the sizes of every file under a database directory —
// data, index, map and WAL relations, the catalog and the commit log —
// and records the WAL and non-WAL shares in rep.
func dirBytes(rep *report, dir string) (int64, error) {
	var total, wal int64
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		if strings.HasPrefix(d.Name(), "pg_wal") {
			wal += info.Size()
		}
		return nil
	})
	rep.set("space.wal_mb", float64(wal)/(1<<20), "MiB")
	rep.set("space.other_mb", float64(total-wal)/(1<<20), "MiB")
	return total, err
}

// mix derives a seed for one stream of inputs from the run seed.
func mix(seed, stream int64) int64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 ^ uint64(stream)*0xBF58476D1CE4E5B9
	x ^= x >> 31
	x *= 0x94D049BB133111EB
	x ^= x >> 29
	return int64(x &^ (1 << 63))
}

package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"postlob"
	"postlob/internal/storage"
)

// The mixed workload: the S3-style HTTP gateway over Inversion on a
// DurabilityWAL primary (group commit, real fsync), with the online vacuum
// keeping history and one WAL-shipped replica in the same process. One
// open-loop writer PUTs to 64 keys at a fixed rate, each PUT overwriting a
// key; one closed-loop reader GETs from the primary, 7 in 8 of them 8 KiB
// Range reads and 1 in 8 whole objects.
const (
	mixedKeys       = 64
	putPerSec       = 50
	putMinBytes     = 4 << 10
	putMaxBytes     = 256 << 10
	checkpointEvery = time.Second
	// vacuumEvery is the vacuum's tick. It keeps history, because with
	// ReclaimHistory a GET racing an overwrite can find no version of its
	// key (README: known defect). Every round then rescans every page of the
	// growing heap, which at the program's 50 ms default would dominate the
	// device.
	vacuumEvery = time.Second
	// serialPutOneIn is the PUT share of the serial (traced and untraced)
	// runs, close to the measured phase's ratio of PUTs to reads.
	serialPutOneIn = 16
	replicaWait    = 30 * time.Second
)

type mixedConfig struct{ seed int64 }

func newMixed(seed int64) *mixedConfig { return &mixedConfig{seed: seed} }

func (c *mixedConfig) stamp() map[string]any {
	return map[string]any{
		"protocol":     "HTTP S3-style gateway over Inversion (net/http client -> gateway.HTTPHandler)",
		"clients":      fmt.Sprintf("1 open-loop writer at %d PUT/s + 1 closed-loop reader, one connection each", putPerSec),
		"objects":      fmt.Sprintf("%d keys, PUT sizes log-uniform %d KiB..%d KiB (golden-ratio stratified), f-chunk", mixedKeys, putMinBytes>>10, putMaxBytes>>10),
		"pool_pages":   "1024 (8 MiB) on the primary and on the replica",
		"device":       "DiskManager on real files (OS page cache); real-file fsync for the WAL",
		"flush_policy": fmt.Sprintf("DurabilityWAL group commit; checkpoint every %v; online vacuum keeping history every %v", checkpointEvery, vacuumEvery),
		"replica":      "one WAL-shipped replica, same process, caught up before and after the run",
		"op_mix":       fmt.Sprintf("reader: 7 in 8 Range: 8 KiB, 1 in 8 whole object; writer: PUT overwrite; serial runs: 1 PUT in %d ops", serialPutOneIn),
	}
}

// putPlan is the seeded write schedule: which key PUT number i writes,
// with how many bytes and which content. Every 64 consecutive PUTs are a
// seeded permutation of the keys, so each key is overwritten once per
// round; sizes follow a golden-ratio sequence over the log scale, so every
// round covers the size range evenly whatever the seed.
type putPlan struct {
	seed int64
	u0   float64

	mu    sync.Mutex
	perms map[int][]int
}

func newPutPlan(seed int64) *putPlan {
	return &putPlan{seed: seed, u0: float64(mix(seed, 77)%1_000_003) / 1_000_003, perms: map[int][]int{}}
}

func (p *putPlan) key(i int) int {
	round := i / mixedKeys
	p.mu.Lock()
	defer p.mu.Unlock()
	perm, ok := p.perms[round]
	if !ok {
		perm = rand.New(rand.NewSource(mix(p.seed, int64(1<<32+round)))).Perm(mixedKeys)
		p.perms[round] = perm
	}
	return perm[i%mixedKeys]
}

func (p *putPlan) size(i int) int {
	const phi = 0.6180339887498949
	u := math.Mod(p.u0+float64(i)*phi, 1)
	return int(float64(putMinBytes) * math.Pow(float64(putMaxBytes)/float64(putMinBytes), u))
}

func (p *putPlan) content(i int) []byte {
	b := make([]byte, p.size(i))
	rand.New(rand.NewSource(mix(p.seed, int64(i)))).Read(b)
	return b
}

// nextSame returns the next PUT number after i that writes the same key.
func (p *putPlan) nextSame(i int) int {
	k := p.key(i)
	for j := i + 1; ; j++ {
		if p.key(j) == k {
			return j
		}
	}
}

func keyPath(k int) string { return fmt.Sprintf("/bench/k%02d", k) }

// version is one PUT's content, kept while a GET may still return it.
type version struct {
	put  int
	data []byte
}

// versionTable is the oracle for GETs: per key, the versions a GET may
// legitimately return. A GET must return a version acknowledged no earlier
// than the last ack before it was sent, or one whose PUT was in flight.
type versionTable struct {
	mu    sync.Mutex
	keys  [mixedKeys][]version // ascending by put number
	acked [mixedKeys]int       // put number of the latest acknowledged version
}

func newVersionTable() *versionTable {
	t := &versionTable{}
	for k := range t.acked {
		t.acked[k] = -1
	}
	return t
}

// begin registers a PUT about to be sent.
func (t *versionTable) begin(k, put int, data []byte) {
	t.mu.Lock()
	t.keys[k] = append(t.keys[k], version{put: put, data: data})
	t.mu.Unlock()
}

// ack records an acknowledged PUT and drops versions no GET sent from now
// on may return, keeping the previous ack for GETs already in flight.
func (t *versionTable) ack(k, put int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	prev := t.acked[k]
	if put > prev {
		t.acked[k] = put
	}
	vs := t.keys[k]
	i := 0
	for i < len(vs) && vs[i].put < prev {
		i++
	}
	t.keys[k] = append([]version(nil), vs[i:]...)
}

// abandon removes a PUT that failed.
func (t *versionTable) abandon(k, put int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	vs := t.keys[k]
	for i := range vs {
		if vs[i].put == put {
			t.keys[k] = append(vs[:i:i], vs[i+1:]...)
			return
		}
	}
}

// lastAcked returns the latest acknowledged PUT of key k.
func (t *versionTable) lastAcked(k int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.acked[k]
}

// latest returns the latest acknowledged version of key k.
func (t *versionTable) latest(k int) (version, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, v := range t.keys[k] {
		if v.put == t.acked[k] {
			return v, true
		}
	}
	return version{}, false
}

// matches reports whether body is bytes [off, off+len(body)) of a version
// of key k no older than put from, and the object is total bytes long.
func (t *versionTable) matches(k, from int, off int64, total int64, body []byte) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, v := range t.keys[k] {
		if v.put < from || int64(len(v.data)) != total {
			continue
		}
		end := off + int64(len(body))
		if end <= total && bytes.Equal(v.data[off:end], body) {
			return true
		}
	}
	return false
}

// mixedInst is a set-up mixed workload.
type mixedInst struct {
	cfg        *mixedConfig
	dirP, dirR string
	prim, rep  *postlob.DB
	dmP, dmR   *devMeter
	gw         *postlob.Gateway
	hm         *handlerMeter
	nm         *netMeter
	srv        *http.Server
	srvDone    chan struct{}
	base       string
	writer     *http.Client
	reader     *http.Client
	plan       *putPlan
	tab        *versionTable
	next       int   // the next PUT number
	phase      int64 // distinguishes the op streams of successive phases
	ckStop     chan struct{}
	ckDone     chan struct{}
	ckMu       sync.Mutex
	ckErr      error  // the first checkpoint failure
	buf        []byte // the reader's body buffer
}

func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
}

func (c *mixedConfig) setup(dir string) (instance, error) {
	in := &mixedInst{
		cfg:  c,
		dirP: filepath.Join(dir, "primary"),
		dirR: filepath.Join(dir, "replica"),
		dmP:  &devMeter{},
		dmR:  &devMeter{},
		plan: newPutPlan(c.seed),
		tab:  newVersionTable(),
		buf:  make([]byte, putMaxBytes),
	}
	ok := false
	defer func() {
		if !ok {
			in.close()
		}
	}()
	wrap := func(dm *devMeter) func(storage.ID, storage.Manager) storage.Manager {
		return func(id storage.ID, mgr storage.Manager) storage.Manager {
			if id != storage.Disk {
				return mgr
			}
			dm.inner = mgr
			return dm
		}
	}
	var err error
	in.prim, err = postlob.Open(in.dirP, postlob.Options{
		Durability:  postlob.DurabilityWAL,
		ReplicateTo: "127.0.0.1:0",
		AutoVacuum:  &postlob.VacuumOptions{Interval: vacuumEvery},
		WrapStorage: wrap(in.dmP),
	})
	if err != nil {
		return nil, err
	}
	in.rep, err = postlob.Open(in.dirR, postlob.Options{
		ReplicaOf:   in.prim.ReplicationAddr().String(),
		ReplicaName: "bench-replica",
		WrapStorage: wrap(in.dmR),
	})
	if err != nil {
		return nil, err
	}
	if err := in.rep.WaitReplicaReady(replicaWait); err != nil {
		return nil, err
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	in.nm = &netMeter{Listener: ln}
	in.gw = in.prim.NewGateway(postlob.GatewayOptions{})
	in.hm = &handlerMeter{h: in.gw.HTTPHandler()}
	in.srv = &http.Server{Handler: in.hm}
	in.srvDone = make(chan struct{})
	go func() {
		defer close(in.srvDone)
		in.srv.Serve(in.nm)
	}()
	in.base = "http://" + ln.Addr().String()
	in.writer, in.reader = newHTTPClient(), newHTTPClient()

	// Seed every key once; the first PUT bootstraps Inversion.
	for in.next < mixedKeys {
		if _, err := in.put(in.next); err != nil {
			return nil, fmt.Errorf("seed PUT %d: %w", in.next, err)
		}
		in.next++
	}
	if err := in.catchUp(); err != nil {
		return nil, err
	}
	// Warm: read every key whole once, checking it.
	for k := 0; k < mixedKeys; k++ {
		if _, _, err := in.get(k, rand.New(rand.NewSource(0)), true); err != nil {
			return nil, fmt.Errorf("warm GET of key %d: %w", k, err)
		}
	}
	in.ckStop, in.ckDone = make(chan struct{}), make(chan struct{})
	go in.checkpointer()
	ok = true
	return in, nil
}

// checkpointer runs the primary's checkpoint on a timer, as a deployment
// would; WAL mode has no built-in checkpoint daemon.
func (in *mixedInst) checkpointer() {
	defer close(in.ckDone)
	t := time.NewTicker(checkpointEvery)
	defer t.Stop()
	for {
		select {
		case <-in.ckStop:
			return
		case <-t.C:
			if err := in.prim.Checkpoint(); err != nil {
				in.ckMu.Lock()
				if in.ckErr == nil {
					in.ckErr = err
				}
				in.ckMu.Unlock()
			}
		}
	}
}

// httpQuiet waits until no HTTP request is inside the gateway, so that a
// handler finishing its accounting after the client saw the last byte
// is counted in the phase it served.
func httpQuiet() error {
	deadline := time.Now().Add(10 * time.Second)
	for postlob.ObsSnapshot().Gauge("gateway.http.inflight") != 0 {
		if time.Now().After(deadline) {
			return errors.New("HTTP requests still in flight after the phase")
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// catchUp waits until the replica has applied everything the primary has
// made durable.
func (in *mixedInst) catchUp() error {
	deadline := time.Now().Add(replicaWait)
	for {
		if in.rep.Stats().ReplAppliedLSN >= in.prim.Stats().WALDurableLSN {
			return nil
		}
		if time.Now().After(deadline) {
			return errors.New("replica did not catch up")
		}
		time.Sleep(time.Millisecond)
	}
}

// put sends PUT number i and waits for its acknowledgement.
func (in *mixedInst) put(i int) (int, error) {
	k := in.plan.key(i)
	data := in.plan.content(i)
	in.tab.begin(k, i, data)
	req, err := http.NewRequest(http.MethodPut, in.base+keyPath(k), bytes.NewReader(data))
	if err != nil {
		in.tab.abandon(k, i)
		return 0, err
	}
	resp, err := in.writer.Do(req)
	if err != nil {
		in.tab.abandon(k, i)
		return 0, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusCreated {
		in.tab.abandon(k, i)
		return 0, fmt.Errorf("PUT %s: %s", keyPath(k), resp.Status)
	}
	if got := resp.Header.Get("X-Bytes"); got != strconv.Itoa(len(data)) {
		return 0, fmt.Errorf("PUT %s: server stored %s bytes, sent %d", keyPath(k), got, len(data))
	}
	in.tab.ack(k, i)
	return len(data), nil
}

// get reads key k, a random 8 KiB range or (whole) the whole object, and
// checks the bytes against the versions it may legitimately return.
func (in *mixedInst) get(k int, rng *rand.Rand, whole bool) (n int64, ranged bool, err error) {
	from := in.tab.lastAcked(k)
	req, err := http.NewRequest(http.MethodGet, in.base+keyPath(k), nil)
	if err != nil {
		return 0, false, err
	}
	var off int64
	if !whole {
		// Stay inside every version the GET may see: the acknowledged one
		// and the next two PUTs of the key.
		safe := in.plan.size(from)
		for j, i := 0, from; j < 2; j++ {
			i = in.plan.nextSame(i)
			if s := in.plan.size(i); s < safe {
				safe = s
			}
		}
		if safe > readRange {
			off = rng.Int63n(int64(safe - readRange + 1))
		}
		req.Header.Set("Range", fmt.Sprintf("bytes=%d-%d", off, off+readRange-1))
	}
	resp, err := in.reader.Do(req)
	if err != nil {
		return 0, false, err
	}
	defer resp.Body.Close()
	nb, err := io.ReadFull(resp.Body, in.buf)
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		err = nil
	} else if err == nil {
		return 0, false, fmt.Errorf("GET %s: body longer than any PUT", keyPath(k))
	}
	if err != nil {
		return 0, false, err
	}
	body := in.buf[:nb]
	total := int64(nb)
	switch resp.StatusCode {
	case http.StatusOK:
		if !whole {
			return 0, false, fmt.Errorf("GET %s with Range: status 200", keyPath(k))
		}
	case http.StatusPartialContent:
		var a, b int64
		if _, err := fmt.Sscanf(resp.Header.Get("Content-Range"), "bytes %d-%d/%d", &a, &b, &total); err != nil {
			return 0, false, fmt.Errorf("GET %s: bad Content-Range %q", keyPath(k), resp.Header.Get("Content-Range"))
		}
		if a != off || b-a+1 != int64(nb) {
			return 0, false, fmt.Errorf("GET %s: Content-Range %q for %d body bytes, asked from %d", keyPath(k), resp.Header.Get("Content-Range"), nb, off)
		}
	default:
		return 0, false, fmt.Errorf("GET %s: %s", keyPath(k), resp.Status)
	}
	if !in.tab.matches(k, from, off, total, body) {
		return 0, false, fmt.Errorf("GET %s [%d,+%d) of %d: bytes match no version acknowledged at or after PUT %d", keyPath(k), off, nb, total, from)
	}
	return int64(nb), !whole, nil
}

func (in *mixedInst) load(d time.Duration, rep *report) error {
	in.phase++
	in.dmP.takeSyncMs()
	in.hm.take()
	if err := httpQuiet(); err != nil {
		return err
	}
	a := takeProbe(in.prim, in.dmP, in.nm)
	ra := in.dmR.data.load()
	in.gw.ResetChunkBufferHWM()
	start := time.Now()
	smp := startSampler(start)
	deadline := start.Add(d)

	var wg sync.WaitGroup
	rt := &clientTally{}
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(mix(in.cfg.seed, 1000*in.phase)))
		for time.Now().Before(deadline) {
			k := rng.Intn(mixedKeys)
			whole := rng.Intn(wholeOneIn) == 0
			t0 := time.Now()
			rt.attempted++
			n, _, err := in.get(k, rng, whole)
			end := time.Now()
			if err != nil {
				rt.failed++
				rt.problems = append(rt.problems, err.Error())
				continue
			}
			kind := opRange
			if whole {
				kind = opGet
			}
			rt.ops = append(rt.ops, opRec{end: end.Sub(start), lat: end.Sub(t0), kind: kind, bytes: n})
		}
	}()

	// The open-loop writer, on this goroutine.
	wt := &clientTally{}
	sched := schedule{start: start, interval: time.Second / putPerSec}
	var putLat, late []time.Duration
	var lags []float64
	for j := 0; ; j++ {
		due := sched.due(j)
		if !due.Before(deadline) {
			break
		}
		if w := time.Until(due); w > 0 {
			time.Sleep(w)
		}
		sent := time.Now()
		wt.attempted++
		n, err := in.put(in.next)
		in.next++
		acked := time.Now()
		if err != nil {
			wt.failed++
			wt.problems = append(wt.problems, err.Error())
			continue
		}
		lat, lt := openLoopSample(due, sent, acked)
		putLat = append(putLat, lat)
		late = append(late, lt)
		wt.ops = append(wt.ops, opRec{end: acked.Sub(start), lat: lat, kind: opPut, bytes: int64(n)})
		lag := int64(in.prim.Stats().WALDurableLSN) - int64(in.rep.Stats().ReplAppliedLSN)
		if lag < 0 {
			lag = 0
		}
		lags = append(lags, float64(lag))
	}
	wg.Wait()
	wins := smp.Stop()
	if err := httpQuiet(); err != nil {
		return err
	}
	b := takeProbe(in.prim, in.dmP, in.nm)
	rb := in.dmR.data.load()

	ops := merge(rep, rt, wt)
	tot := totals(ops)
	if len(rt.ops) == 0 || len(wt.ops) == 0 {
		return fmt.Errorf("phase completed %d reads and %d PUTs", len(rt.ops), len(wt.ops))
	}
	if out := b.obs.CounterDelta(a.obs, "gateway.http.bytes_out"); out != tot.lobBytes {
		rep.fail("gateway.http.bytes_out delta %d, reader received %d", out, tot.lobBytes)
	}
	in.ckMu.Lock()
	ckErr := in.ckErr
	in.ckMu.Unlock()
	if ckErr != nil {
		return fmt.Errorf("checkpoint: %w", ckErr)
	}

	recordPhase(rep, a, b, tot)
	windowMetrics(rep, ops, wins)
	tailMetrics(rep, ops)
	pl := durationsMs(putLat)
	rep.setTail("put_p50_ms", percentile(pl, 0.50), "ms")
	pt := highestTail(pl, 0.99, 0.98, 0.95, 0.90)
	rep.setTail(fmt.Sprintf("put_p%g_ms", pt.P*100), pt, "ms")
	lt := highestTail(durationsMs(late), 0.99, 0.98, 0.95, 0.90)
	rep.setTail(fmt.Sprintf("loadgen.late_p%g_ms", lt.P*100), lt, "ms")
	sort.Float64s(lags)
	rep.setTail("repl.lag_bytes_p95", percentile(lags, 0.95), "bytes")
	syncs := in.dmP.takeSyncMs()
	sort.Float64s(syncs)
	rep.setTail("wal.fsync_p50_ms", percentile(syncs, 0.50), "ms")
	hl := durationsMs(in.hm.take())
	rep.setTail("gateway.http.handler_p50_ms", percentile(hl, 0.50), "ms")
	rep.setTail("gateway.http.handler_p99_ms", percentile(hl, 0.99), "ms")
	rep.setRatio("gateway.round_trips_per_op", deltaRatio(
		a.obs.Counter("gateway.http.requests"), b.obs.Counter("gateway.http.requests"), "gateway.http.requests",
		0, tot.ops, "ops"), "count")
	handlerMsPerOp(rep, a.obs, b.obs, tot.ops, "gateway.http.get", "gateway.http.put")
	rep.set("gateway.chunk.buffered_hwm", float64(in.gw.ChunkBufferHWM()), "bytes")
	rep.set("db.checkpoints", float64(b.obs.CounterDelta(a.obs, "db.checkpoints")), "count")
	rep.setRatio("replica.storage.data.write_amp", ratio{
		Num: float64(rb.WriteBytes - ra.WriteBytes), NumFrom: "replica data bytes written",
		Den: float64(tot.putBytes), DenFrom: "user bytes PUT",
	}, "ratio")
	return nil
}

func (in *mixedInst) serial(d time.Duration, n int, tr *tracer) ([]time.Duration, error) {
	rng := rand.New(rand.NewSource(mix(in.cfg.seed, -7)))
	if tr != nil {
		in.dmP.tr.Store(tr)
		in.hm.tr.Store(tr)
		defer in.dmP.tr.Store(nil)
		defer in.hm.tr.Store(nil)
	}
	var lats []time.Duration
	deadline := time.Now().Add(d)
	for i := 0; ; i++ {
		if (n > 0 && i >= n) || (n == 0 && !time.Now().Before(deadline)) {
			break
		}
		isPut := rng.Intn(serialPutOneIn) == 0
		k := rng.Intn(mixedKeys)
		whole := rng.Intn(wholeOneIn) == 0
		start := time.Now()
		var err error
		if isPut {
			_, err = in.put(in.next)
			in.next++
		} else {
			_, _, err = in.get(k, rng, whole)
		}
		if err != nil {
			return nil, err
		}
		if tr != nil {
			tr.add(spanRoot, start)
		}
		lats = append(lats, time.Since(start))
	}
	return lats, nil
}

func (in *mixedInst) finish(rep *report) error {
	if err := in.catchUp(); err != nil {
		return err
	}
	// The caught-up replica holds exactly what the primary holds, and both
	// hold the last acknowledged version of every key.
	rgw := in.rep.NewGateway(postlob.GatewayOptions{})
	defer rgw.Close()
	primary, replica := in.gw.HTTPHandler(), rgw.HTTPHandler()
	var live int64
	for k := 0; k < mixedKeys; k++ {
		want, ok := in.tab.latest(k)
		if !ok {
			rep.fail("key %d has no acknowledged version", k)
			continue
		}
		live += int64(len(want.data))
		for _, node := range []struct {
			name string
			h    http.Handler
		}{{"primary", primary}, {"replica", replica}} {
			rec := httptest.NewRecorder()
			node.h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, keyPath(k), nil))
			if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want.data) {
				rep.fail("%s: %s holds %d bytes (status %d), last acknowledged PUT %d has %d",
					node.name, keyPath(k), rec.Body.Len(), rec.Code, want.put, len(want.data))
			}
		}
	}
	if err := in.prim.Checkpoint(); err != nil {
		return err
	}
	dev, err := dirBytes(rep, in.dirP)
	if err != nil {
		return err
	}
	rep.setRatio("space_amp", ratio{
		Num: float64(dev), NumFrom: "primary device bytes",
		Den: float64(live), DenFrom: "live user bytes",
	}, "ratio")
	return nil
}

func (in *mixedInst) close() error {
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	if in.ckStop != nil {
		close(in.ckStop)
		<-in.ckDone
		in.ckStop = nil
	}
	if in.srv != nil {
		keep(in.srv.Close())
		<-in.srvDone
		in.srv = nil
	}
	for _, c := range []*http.Client{in.writer, in.reader} {
		if c != nil {
			c.CloseIdleConnections()
		}
	}
	if in.gw != nil {
		keep(in.gw.Close())
		in.gw = nil
	}
	if in.rep != nil {
		keep(in.rep.Close())
		in.rep = nil
	}
	if in.prim != nil {
		keep(in.prim.Close())
		in.prim = nil
	}
	return first
}

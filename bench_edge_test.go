package postlob

// TestEdgeThroughputReport measures the v2 streaming edge: aggregate read
// throughput and per-op latency at 1, 8, and 64 concurrent clients, over a
// device with simulated per-block read latency. v2 streams chunk-granular
// frames with depth-D read-ahead under a credit window, so device access
// overlaps the wire and server memory stays O(chunk-window).
//
// The v1 whole-buffer protocol it replaced no longer exists. Its last
// measured cells are kept, unchanged, in the historical_v1 block of
// BENCH_edge_throughput.json; the harness reads that block back and
// carries it through every rewrite of the file.
//
// The report only runs when BENCH=1 is set:
//
//	BENCH=1 go test -run TestEdgeThroughputReport -v .
//	BENCH=1 ./check.sh
//
// Results are written to BENCH_edge_throughput.json at the repo root. The
// acceptance bars: streaming v2 must reach edgeBenchBar times the frozen
// v1 throughput at 8 clients, and its p99 must stay within edgeBenchP99Bar
// times its median there (no stall collapse under pipelining).

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"postlob/internal/client"
	"postlob/internal/compress"
	"postlob/internal/storage"
)

const (
	// edgeBenchBar gates v2 throughput at 8 clients over the frozen v1
	// 8-client cell of the historical_v1 block.
	edgeBenchBar = 2.0
	// edgeBenchP99Bar gates v2 p99 over its own median at 8 clients.
	edgeBenchP99Bar = 5.0
	// edgeBenchObjBytes sizes each object (128 f-chunk blocks).
	edgeBenchObjBytes = 1 << 20
	// edgeBenchObjects is the seeded working set.
	edgeBenchObjects = 48
	// edgeBenchReadLat is the simulated per-block device read latency. v2
	// overlaps it depth-wide; v1 paid it serially across the whole object.
	edgeBenchReadLat = 200 * time.Microsecond
	// edgeBenchPoolPages keeps the pool far under the working set so reads
	// actually hit the device, while leaving room for the transient pins of
	// 64 clients x depth concurrent chunk fetches.
	edgeBenchPoolPages = 1024
	// edgeBenchDepth/Window/Chunk configure the v2 streaming core.
	edgeBenchDepth  = 4
	edgeBenchWindow = 8
	edgeBenchChunk  = 64 << 10
	// edgeBenchPhase is the measured window per client-count cell.
	edgeBenchPhase = 1500 * time.Millisecond
)

// edgeBenchCell is one measured (protocol, clients) combination.
type edgeBenchCell struct {
	Protocol string  `json:"protocol"`
	Clients  int     `json:"clients"`
	Ops      int64   `json:"ops"`
	MBPerSec float64 `json:"mb_per_sec"`
	P50Ms    float64 `json:"p50_ms"`
	P99Ms    float64 `json:"p99_ms"`
}

// edgeBenchHistory is the frozen v1 baseline: the whole-buffer protocol's
// last committed cells, copied unchanged when the protocol was deleted.
type edgeBenchHistory struct {
	Note        string          `json:"note"`
	Environment map[string]any  `json:"environment"`
	Cells       []edgeBenchCell `json:"cells"`
}

// loadEdgeBenchHistory reads the historical_v1 block back from the
// committed report, so a rewrite keeps it and the gate keeps its
// comparand.
func loadEdgeBenchHistory(path string) (*edgeBenchHistory, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var prev struct {
		History *edgeBenchHistory `json:"historical_v1"`
	}
	if err := json.Unmarshal(data, &prev); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if prev.History == nil {
		return nil, fmt.Errorf("%s has no historical_v1 block", path)
	}
	return prev.History, nil
}

// edgeBenchRun drives `clients` workers for the measured window. op reads
// one whole object and returns its byte count.
func edgeBenchRun(t *testing.T, clients int, mkWorker func(t *testing.T) func() (int64, error)) edgeBenchCell {
	t.Helper()
	stop := make(chan struct{})
	var mu sync.Mutex
	var lats []time.Duration
	var ops, bytesRead int64
	var wg sync.WaitGroup
	var started sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		started.Add(1)
		go func() {
			defer wg.Done()
			op := mkWorker(t)
			started.Done()
			if op == nil {
				return
			}
			for {
				select {
				case <-stop:
					return
				default:
				}
				begin := time.Now()
				n, err := op()
				if err != nil {
					t.Errorf("op: %v", err)
					return
				}
				d := time.Since(begin)
				mu.Lock()
				lats = append(lats, d)
				ops++
				bytesRead += n
				mu.Unlock()
			}
		}()
	}
	started.Wait()
	begin := time.Now()
	time.Sleep(edgeBenchPhase)
	close(stop)
	wg.Wait()
	elapsed := time.Since(begin)

	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	q := func(p float64) float64 {
		if len(lats) == 0 {
			return 0
		}
		i := int(p * float64(len(lats)-1))
		return float64(lats[i].Microseconds()) / 1000
	}
	return edgeBenchCell{
		Clients:  clients,
		Ops:      ops,
		MBPerSec: float64(bytesRead) / (1 << 20) / elapsed.Seconds(),
		P50Ms:    q(0.50),
		P99Ms:    q(0.99),
	}
}

func TestEdgeThroughputReport(t *testing.T) {
	if os.Getenv("BENCH") != "1" {
		t.Skip("set BENCH=1 to run the edge throughput harness")
	}
	const reportPath = "BENCH_edge_throughput.json"
	history, err := loadEdgeBenchHistory(reportPath)
	if err != nil {
		t.Fatalf("frozen v1 baseline: %v", err)
	}
	var v1at8 edgeBenchCell
	for _, c := range history.Cells {
		if c.Clients == 8 {
			v1at8 = c
		}
	}
	if v1at8.MBPerSec <= 0 {
		t.Fatalf("frozen v1 baseline has no 8-client cell")
	}

	db, err := Open(t.TempDir(), Options{
		BufferPoolPages: edgeBenchPoolPages,
		WrapStorage: func(id storage.ID, mgr storage.Manager) storage.Manager {
			if id != storage.Disk {
				return mgr
			}
			return storage.NewLatencyManager(mgr, edgeBenchReadLat, 0)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	// Seed the working set: incompressible f-chunk objects so wire bytes
	// equal logical bytes.
	refs := make([]ObjectRef, edgeBenchObjects)
	tx := db.Begin()
	for i := range refs {
		ref, h, err := db.LargeObjects().Create(tx, CreateOptions{Kind: FChunk})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.Write(compress.GenFrame(int64(i), edgeBenchObjBytes, 0.0)); err != nil {
			t.Fatal(err)
		}
		if err := h.Close(); err != nil {
			t.Fatal(err)
		}
		refs[i] = ref
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	ts := db.Now()

	gw := db.NewGateway(GatewayOptions{Chunk: edgeBenchChunk, Window: edgeBenchWindow, Depth: edgeBenchDepth})
	defer gw.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go gw.ServeStream(l)

	var idxMu sync.Mutex
	nextIdx := 0
	takeIdx := func() int {
		idxMu.Lock()
		defer idxMu.Unlock()
		nextIdx++
		return nextIdx
	}

	worker := func(t *testing.T) func() (int64, error) {
		s, err := client.DialStream(l.Addr().String())
		if err != nil {
			t.Errorf("dial v2: %v", err)
			return nil
		}
		t.Cleanup(func() { s.Close() })
		idx := takeIdx() * 7
		return func() (int64, error) {
			h, err := s.OpenAsOf(ts, refs[idx%len(refs)])
			if err != nil {
				return 0, err
			}
			idx++
			n, err := h.ReadTo(io.Discard, 0, -1)
			h.Close()
			if err != nil {
				return 0, err
			}
			return n, nil
		}
	}

	const protocol = "v2-streaming"
	cells := make([]edgeBenchCell, 0, 3)
	var v2at8 edgeBenchCell
	for _, clients := range []int{1, 8, 64} {
		gw.ResetChunkBufferHWM()
		cell := edgeBenchRun(t, clients, worker)
		cell.Protocol = protocol
		cells = append(cells, cell)
		if clients == 8 {
			v2at8 = cell
		}
		t.Logf("%s clients=%d: %.1f MB/s, %d ops, p50=%.1fms p99=%.1fms (HWM %d)",
			protocol, clients, cell.MBPerSec, cell.Ops, cell.P50Ms, cell.P99Ms, gw.ChunkBufferHWM())
	}

	speedup := v2at8.MBPerSec / v1at8.MBPerSec
	if speedup < edgeBenchBar {
		t.Errorf("v2 streaming at 8 clients is %.2fx of the frozen v1 whole-buffer cell (%.1f vs %.1f MB/s), below the %.1fx bar",
			speedup, v2at8.MBPerSec, v1at8.MBPerSec, edgeBenchBar)
	}
	if v2at8.P50Ms > 0 && v2at8.P99Ms > edgeBenchP99Bar*v2at8.P50Ms {
		t.Errorf("v2 p99 at 8 clients is %.1fms against a %.1fms median — over the %.1fx stall bar",
			v2at8.P99Ms, v2at8.P50Ms, edgeBenchP99Bar)
	}

	report := struct {
		Benchmark   string            `json:"benchmark"`
		Description string            `json:"description"`
		Environment map[string]any    `json:"environment"`
		SpeedupBar  float64           `json:"speedup_bar"`
		P99Bar      float64           `json:"p99_over_p50_bar"`
		Cells       []edgeBenchCell   `json:"cells"`
		Speedup8    float64           `json:"v2_over_v1_at_8_clients"`
		History     *edgeBenchHistory `json:"historical_v1"`
	}{
		Benchmark:   "TestEdgeThroughputReport",
		Description: "Aggregate full-object read throughput (one op = one 1 MiB incompressible f-chunk object over the network edge) for the v2 chunk-streaming protocol at 1/8/64 concurrent clients. The device charges a simulated per-block read latency, which v2's depth-wise chunk read-ahead overlaps with the wire. The deleted v1 whole-buffer protocol paid it serially; its last measured cells are frozen, unchanged, in historical_v1. The build fails if v2 is below speedup_bar times the frozen v1 cell at 8 clients, or if v2's p99 exceeds p99_over_p50_bar times its median there.",
		Environment: map[string]any{
			"cpu_count":    runtime.NumCPU(),
			"gomaxprocs":   runtime.GOMAXPROCS(0),
			"go_version":   runtime.Version(),
			"objects":      edgeBenchObjects,
			"object_bytes": edgeBenchObjBytes,
			"read_latency": edgeBenchReadLat.String(),
			"pool_pages":   edgeBenchPoolPages,
			"chunk":        edgeBenchChunk,
			"window":       edgeBenchWindow,
			"depth":        edgeBenchDepth,
			"phase":        edgeBenchPhase.String(),
		},
		SpeedupBar: edgeBenchBar,
		P99Bar:     edgeBenchP99Bar,
		Cells:      cells,
		Speedup8:   speedup,
		History:    history,
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(reportPath, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Log("wrote " + reportPath)
}

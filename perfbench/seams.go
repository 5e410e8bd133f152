package main

import (
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"postlob/internal/storage"
)

// This file holds the wrappers the benchmark puts around the program's
// public seams. They count and time calls from outside; nothing here
// reaches into the program.

// devClass splits device traffic: write-ahead log relations apart from
// everything else (heap, index and map relations).
type devClass struct {
	readBlocks atomic.Int64
	writeBytes atomic.Int64
	busyNs     atomic.Int64 // summed call time, including modelled latency
}

// devCounts is a point-in-time copy of a devClass.
type devCounts struct {
	ReadBlocks, WriteBytes, BusyNs int64
}

func (c *devClass) load() devCounts {
	return devCounts{ReadBlocks: c.readBlocks.Load(), WriteBytes: c.writeBytes.Load(), BusyNs: c.busyNs.Load()}
}

// devMeter wraps a storage.Manager (passed in as Options.WrapStorage) and
// meters every call, per class. With a tracer attached it also records a
// span per block-moving call.
type devMeter struct {
	inner     storage.Manager
	data, wal devClass
	tr        atomic.Pointer[tracer]

	mu     sync.Mutex
	syncMs []float64 // WAL sync latencies, for the fsync percentiles
}

var _ storage.Manager = (*devMeter)(nil)

func isWAL(rel storage.RelName) bool { return strings.HasPrefix(string(rel), "pg_wal") }

func (m *devMeter) class(rel storage.RelName) (*devClass, string) {
	if isWAL(rel) {
		return &m.wal, spanDevWAL
	}
	return &m.data, spanDevData
}

// done charges a finished call that began at start.
func (m *devMeter) done(c *devClass, kind string, start time.Time) time.Duration {
	d := time.Since(start)
	c.busyNs.Add(int64(d))
	if tr := m.tr.Load(); tr != nil {
		tr.add(kind, start)
	}
	return d
}

func (m *devMeter) Name() string                     { return m.inner.Name() }
func (m *devMeter) Create(rel storage.RelName) error { return m.inner.Create(rel) }
func (m *devMeter) Exists(rel storage.RelName) bool  { return m.inner.Exists(rel) }
func (m *devMeter) Unlink(rel storage.RelName) error { return m.inner.Unlink(rel) }
func (m *devMeter) Close() error                     { return m.inner.Close() }

func (m *devMeter) NBlocks(rel storage.RelName) (storage.BlockNum, error) {
	return m.inner.NBlocks(rel)
}

func (m *devMeter) Size(rel storage.RelName) (int64, error) { return m.inner.Size(rel) }

func (m *devMeter) ReadBlock(rel storage.RelName, blk storage.BlockNum, buf []byte) error {
	c, kind := m.class(rel)
	start := time.Now()
	err := m.inner.ReadBlock(rel, blk, buf)
	m.done(c, kind, start)
	c.readBlocks.Add(1)
	return err
}

func (m *devMeter) ReadBlocks(rel storage.RelName, blk storage.BlockNum, bufs [][]byte) error {
	c, kind := m.class(rel)
	start := time.Now()
	err := m.inner.ReadBlocks(rel, blk, bufs)
	m.done(c, kind, start)
	c.readBlocks.Add(int64(len(bufs)))
	return err
}

func (m *devMeter) WriteBlock(rel storage.RelName, blk storage.BlockNum, buf []byte) error {
	c, kind := m.class(rel)
	start := time.Now()
	err := m.inner.WriteBlock(rel, blk, buf)
	m.done(c, kind, start)
	c.writeBytes.Add(int64(len(buf)))
	return err
}

func (m *devMeter) WriteBlocks(rel storage.RelName, blk storage.BlockNum, bufs [][]byte) error {
	c, kind := m.class(rel)
	start := time.Now()
	err := m.inner.WriteBlocks(rel, blk, bufs)
	m.done(c, kind, start)
	for _, b := range bufs {
		c.writeBytes.Add(int64(len(b)))
	}
	return err
}

func (m *devMeter) Sync(rel storage.RelName) error {
	c, kind := m.class(rel)
	start := time.Now()
	err := m.inner.Sync(rel)
	d := m.done(c, kind, start)
	if c == &m.wal {
		m.mu.Lock()
		m.syncMs = append(m.syncMs, float64(d)/float64(time.Millisecond))
		m.mu.Unlock()
	}
	return err
}

// takeSyncMs returns and clears the recorded WAL sync latencies.
func (m *devMeter) takeSyncMs() []float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := m.syncMs
	m.syncMs = nil
	return out
}

// netMeter wraps a server's net.Listener and counts what its accepted
// connections move. With a tracer attached it records a point event per
// read that brought bytes in and per write that sent bytes out.
type netMeter struct {
	net.Listener
	bytesOut, writes atomic.Int64
	tr               atomic.Pointer[tracer]
}

func (l *netMeter) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &meteredConn{Conn: c, l: l}, nil
}

type meteredConn struct {
	net.Conn
	l *netMeter
}

func (c *meteredConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		if tr := c.l.tr.Load(); tr != nil {
			tr.point(spanNetIn)
		}
	}
	return n, err
}

func (c *meteredConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.l.writes.Add(1)
	c.l.bytesOut.Add(int64(n))
	if tr := c.l.tr.Load(); tr != nil {
		tr.point(spanNetOut)
	}
	return n, err
}

// handlerMeter wraps an http.Handler and times every request it serves.
type handlerMeter struct {
	h  http.Handler
	tr atomic.Pointer[tracer]

	mu  sync.Mutex
	lat []time.Duration
}

func (m *handlerMeter) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	m.h.ServeHTTP(w, r)
	d := time.Since(start)
	if tr := m.tr.Load(); tr != nil {
		tr.add(spanServer, start)
	}
	m.mu.Lock()
	m.lat = append(m.lat, d)
	m.mu.Unlock()
}

// take returns and clears the recorded handler latencies.
func (m *handlerMeter) take() []time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := m.lat
	m.lat = nil
	return out
}

package gateway_test

import (
	"bytes"
	"encoding/binary"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"postlob/internal/core"
	"postlob/internal/gateway"
)

// leaseVersion is the body of the n-th PUT: its number, then filler that
// depends on it, spanning several chunks.
func leaseVersion(n uint64) []byte {
	b := bytes.Repeat([]byte{byte(n), byte(n >> 8), 0x5A}, 7000)
	binary.LittleEndian.PutUint64(b, n)
	return b
}

// TestHTTPGetAtLatestHoldsVacuumHorizon overwrites one key in a loop under
// a history-reclaiming vacuum that runs every millisecond, while GETs at
// the latest commit read it through the same handler. Each GET reads as
// of the commit timestamp it resolved; without a lease on the vacuum
// horizon a round could reclaim the version that GET must see while the
// overwrite replacing it was still invisible to it, and the GET found
// neither (404, 500, or a short body).
func TestHTTPGetAtLatestHoldsVacuumHorizon(t *testing.T) {
	_, store, g := startGateway(t, gateway.Options{Chunk: 8 << 10})
	h := g.HTTPHandler()
	put := func(n uint64) int {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPut, "/bucket/key", bytes.NewReader(leaseVersion(n)))
		h.ServeHTTP(rec, req)
		return rec.Code
	}
	if code := put(0); code != http.StatusCreated && code != http.StatusOK {
		t.Fatalf("initial PUT = %d", code)
	}
	v := store.StartVacuum(core.VacuumOptions{Interval: time.Millisecond, ReclaimHistory: true})
	defer func() {
		if err := v.Stop(); err != nil {
			t.Error(err)
		}
	}()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for n := uint64(1); ; n++ {
			select {
			case <-stop:
				return
			default:
			}
			if code := put(n); code != http.StatusOK && code != http.StatusCreated {
				t.Errorf("PUT %d = %d", n, code)
				return
			}
		}
	}()

	const gets = 300
	failed := 0
	for i := 0; i < gets; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/bucket/key", nil))
		body := rec.Body.Bytes()
		if rec.Code != http.StatusOK || len(body) < 8 || !bytes.Equal(body, leaseVersion(binary.LittleEndian.Uint64(body))) {
			if failed < 3 {
				t.Logf("GET %d: status %d, %d bytes", i, rec.Code, len(body))
			}
			failed++
		}
	}
	close(stop)
	wg.Wait()
	if failed > 0 {
		t.Fatalf("%d of %d GETs at the latest commit failed under a history-reclaiming vacuum", failed, gets)
	}
}

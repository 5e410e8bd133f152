package main

import "testing"

func TestCoverageUnionsOverlaps(t *testing.T) {
	ivs := []interval{{20, 30}, {25, 40}, {50, 55}, {0, 5}}
	if got := coverage(ivs, 10, 52); got != 22 {
		t.Fatalf("coverage = %d, want 20 (20..40) + 2 (50..52)", got)
	}
	if got := coverage(nil, 0, 10); got != 0 {
		t.Fatalf("empty coverage = %d", got)
	}
}

// An HTTP-style request: an explicit server span, overlapping device
// calls inside it, one device call after the response inside the root,
// and one device call outside every request.
func TestAttributeSelfTimes(t *testing.T) {
	spans := []span{
		{spanRoot, 0, 100},
		{spanServer, 10, 90},
		{spanDevData, 20, 30},
		{spanDevWAL, 25, 40},
		{spanDevData, 95, 99},
		{spanDevData, 150, 160},
		{spanRoot, 200, 250},
		{spanServer, 205, 245},
	}
	st := attribute(spans)
	if st.Requests != 2 || st.Root != 150 {
		t.Fatalf("requests %d root %d, want 2 and 150", st.Requests, st.Root)
	}
	// Request 1: device 20..40 inside the server (20) and 95..99 outside
	// it (4); server self 80-20; client/network 100-80-4.
	// Request 2: server self 40, client/network 10, no device.
	if st.Device != 24 || st.ServerSelf != 60+40 || st.ClientNet != 16+10 {
		t.Fatalf("device %d server %d client %d, want 24, 100, 26", st.Device, st.ServerSelf, st.ClientNet)
	}
	if st.ClientNet+st.ServerSelf+st.Device != st.Root {
		t.Fatal("self times do not account for the root spans")
	}
	if st.Background != 10 {
		t.Fatalf("background = %d, want 10", st.Background)
	}
}

// A v2-style request: the server span runs from the first byte in to the
// last byte out inside the root; a device call straddling the root's end
// is clipped to it and its remainder is not background.
func TestAttributeNetEventsAndClipping(t *testing.T) {
	spans := []span{
		{spanRoot, 100, 200},
		{spanNetIn, 110, 110},
		{spanNetOut, 150, 150},
		{spanNetIn, 160, 160},
		{spanNetOut, 180, 180},
		{spanNetOut, 300, 300}, // outside the root: ignored
		{spanDevData, 120, 130},
		{spanDevData, 190, 230},
	}
	st := attribute(spans)
	// Server span 110..180 (70): device inside it 10, so self 60.
	// Device 120..130 plus 190..200 clipped: 20. Client/network 100-70-10.
	if st.ServerSelf != 60 || st.Device != 20 || st.ClientNet != 20 || st.Background != 0 {
		t.Fatalf("server %d device %d client %d background %d, want 60, 20, 20, 0",
			st.ServerSelf, st.Device, st.ClientNet, st.Background)
	}
}

func TestAttributeRequestNeverSeenByServer(t *testing.T) {
	st := attribute([]span{{spanRoot, 0, 10}})
	if st.ClientNet != 10 || st.ServerSelf != 0 || st.Device != 0 {
		t.Fatalf("%+v: a request with no server span is all client/network", st)
	}
}

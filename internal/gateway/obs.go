package gateway

import "postlob/internal/obs"

// Gateway metrics, registered once at package init (the obsregister
// analyzer's contract). Per-protocol request/latency/byte accounting plus
// the shared chunk-buffer gauge that backs the O(chunk-window) memory
// assertion in the edge soak:
//
//   - gateway.stream.bytes_out / gateway.http.bytes_out count *logical*
//     large-object bytes served through each frontend (what the client
//     assembles, not the compressed wire bytes), so their sum exactly
//     accounts every LOB read byte the edge delivered — the conservation
//     law the soak asserts.
//   - gateway.chunk.buffered is the shared streaming core's in-flight
//     chunk-buffer footprint across both protocols; buffered_hwm is its
//     high-water mark. Streaming a 64 MB object must leave the HWM at
//     O(depth × chunk) per connection, never O(object).
var (
	obsStreamConns     = obs.NewGauge("gateway.stream.connections")
	obsStreamReqs      = obs.NewCounter("gateway.stream.requests")
	obsStreamUnknown   = obs.NewCounter("gateway.stream.unknown_op")
	obsStreamErrors    = obs.NewCounter("gateway.stream.frame_errors")
	obsStreamBytesOut  = obs.NewCounter("gateway.stream.bytes_out")
	obsStreamBytesIn   = obs.NewCounter("gateway.stream.bytes_in")
	obsStreamChunksOut = obs.NewCounter("gateway.stream.chunks_out")
	obsStreamChunksIn  = obs.NewCounter("gateway.stream.chunks_in")

	streamRPCBegin   = obs.NewTimer("gateway.stream.rpc.begin")
	streamRPCCommit  = obs.NewTimer("gateway.stream.rpc.commit")
	streamRPCAbort   = obs.NewTimer("gateway.stream.rpc.abort")
	streamRPCNow     = obs.NewTimer("gateway.stream.rpc.now")
	streamRPCExec    = obs.NewTimer("gateway.stream.rpc.exec")
	streamRPCOpen    = obs.NewTimer("gateway.stream.rpc.open")
	streamRPCClose   = obs.NewTimer("gateway.stream.rpc.close")
	streamRPCSize    = obs.NewTimer("gateway.stream.rpc.size")
	streamRPCRead    = obs.NewTimer("gateway.stream.rpc.read")
	streamRPCRawRead = obs.NewTimer("gateway.stream.rpc.rawread")
	streamRPCWrite   = obs.NewTimer("gateway.stream.rpc.write")

	obsHTTPInflight = obs.NewGauge("gateway.http.inflight")
	obsHTTPReqs     = obs.NewCounter("gateway.http.requests")
	obsHTTPErrors   = obs.NewCounter("gateway.http.errors")
	obsHTTPBytesOut = obs.NewCounter("gateway.http.bytes_out")
	obsHTTPBytesIn  = obs.NewCounter("gateway.http.bytes_in")
	obsHTTPRange    = obs.NewCounter("gateway.http.range_requests")
	obsHTTPAsOf     = obs.NewCounter("gateway.http.asof_requests")

	httpGet    = obs.NewTimer("gateway.http.get")
	httpPut    = obs.NewTimer("gateway.http.put")
	httpHead   = obs.NewTimer("gateway.http.head")
	httpDelete = obs.NewTimer("gateway.http.delete")
	httpList   = obs.NewTimer("gateway.http.list")

	obsChunkBuffered = obs.NewGauge("gateway.chunk.buffered")
	obsChunkHWM      = obs.NewGauge("gateway.chunk.buffered_hwm")
)

// rpcTimer maps an op to its latency timer (nil for an unknown op). A
// switch over fixed package vars keeps dispatch lock- and allocation-free.
func rpcTimer(op Op) *obs.Timer {
	switch op {
	case OpBegin:
		return streamRPCBegin
	case OpCommit:
		return streamRPCCommit
	case OpAbort:
		return streamRPCAbort
	case OpNow:
		return streamRPCNow
	case OpExec:
		return streamRPCExec
	case OpOpen:
		return streamRPCOpen
	case OpClose:
		return streamRPCClose
	case OpSize:
		return streamRPCSize
	case OpRead:
		return streamRPCRead
	case OpRawRead:
		return streamRPCRawRead
	case OpWrite:
		return streamRPCWrite
	default:
		return nil
	}
}

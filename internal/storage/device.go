package storage

import "logrec/internal/sim"

// Device abstracts stable page storage so every layer above — buffer
// pool, DC, engine, recovery — is indifferent to whether pages live in
// the discrete-event simulation (Disk) or in a real file on a real disk
// (FileDisk). The paper's recovery-performance story (Appendix B) is a
// story about devices: seeks, transfers, queue depth and log forces.
// The simulated implementation models those costs on a virtual clock;
// the file implementation pays them for real, which is what turns the
// recovery benchmarks into end-to-end wall-clock measurements.
//
// Method semantics every implementation must honour:
//
//   - Read is synchronous: it returns the page's current stable
//     content, waiting for any covering in-flight prefetch instead of
//     issuing a duplicate IO. The caller must not modify the returned
//     bytes: the simulated device returns its stored image itself.
//   - Write makes data the page's stable content immediately from the
//     caller's perspective (the engine never crashes with data writes
//     in flight — the paper's controlled-crash methodology); the
//     returned time is the modelled completion, used to order
//     flush-completion callbacks. The device may keep data itself (the
//     simulated one does), so the caller must not modify it afterward.
//
// Together these let a page image be shared, never copied, between the
// simulated device and the buffer pool until someone writes it: the
// pool wraps what it reads as a shared page.Page, which copies its
// bytes at their first mutation.
//   - Prefetch issues asynchronous reads, grouping contiguous pages
//     into block IOs; it never blocks on the IO itself.
//   - Sync is the durability barrier: on a real device it is fsync, on
//     the simulated device it only counts (virtual writes are stable at
//     their completion time by construction). Checkpoints call it after
//     their page flushes and boot-page write.
//
// The buffer pool calls Read and Write with its latch released on every
// device, so concurrent IOs overlap wherever the device lets them: in
// wall-clock time on FileDisk, and in the simulated disk's virtual
// channels on Disk.
type Device interface {
	// Read synchronously fetches pid's stable content, which the caller
	// must not modify.
	Read(pid PageID) ([]byte, error)
	// Write stores data as the new stable content of pid and returns
	// the IO's completion time. The device may keep data: the caller
	// must not modify it afterward.
	Write(pid PageID, data []byte) (sim.Time, error)
	// Prefetch asynchronously issues reads for the given pages.
	Prefetch(pids []PageID)
	// Sync is the durability barrier (fsync on real devices).
	Sync() error
	// Exists reports whether pid has ever been written.
	Exists(pid PageID) bool
	// NumPages reports the number of distinct pages stored.
	NumPages() int
	// Config returns the device's page-size/latency configuration.
	Config() Config
	// Stats returns a copy of the accumulated IO statistics.
	Stats() Stats
	// SetIOHook subscribes fn to every IO the device performs. The hook
	// may be called with internal locks held: it must be fast and must
	// not call back into the device. nil unsubscribes.
	SetIOHook(fn IOHook)
	// InflightCount reports prefetched pages whose IOs have not
	// completed.
	InflightCount() int
	// Freeze marks the device immutable; subsequent writes fail.
	Freeze()
}

// IOOp classifies a device IO for the stats hook.
type IOOp int

// IO operation kinds reported to IOHook.
const (
	// OpRead is a synchronous page read.
	OpRead IOOp = iota
	// OpWrite is a page write.
	OpWrite
	// OpPrefetch is an asynchronously issued read IO (possibly a block
	// covering several pages).
	OpPrefetch
	// OpSync is a durability barrier (fsync on real devices).
	OpSync
)

func (op IOOp) String() string {
	switch op {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpPrefetch:
		return "prefetch"
	case OpSync:
		return "sync"
	default:
		return "io?"
	}
}

// IOHook observes device IOs: op is the IO kind, pages how many pages
// it moved (0 for OpSync). The WAL's file backend reuses the same hook
// type for its byte-oriented log device, so one observer can account
// data-page IO and log forces together (the fsync-per-batch test does).
type IOHook func(op IOOp, pages int)

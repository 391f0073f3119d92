// Package storage is the Shore-MT substitute: a page-based storage manager
// with heap files, a pinning buffer pool with clock eviction, a disk interface
// with one in-memory implementation (a latency model on one device clock, for
// repeatable experiments) and a fault-injecting wrapper, and circular shared
// scans — the storage-layer sharing primitive both QPipe and CJOIN rely on.
//
// The files follow the roles: format.go is the page layout and the datum
// codec both sides of it share, builder.go the page builder (with the zone
// entries it writes), reader.go the page reader (the directory, validation,
// lazy column decode and zone entries), heapfile.go the bulk-load writer that
// keeps each page's zone maps, pool.go the buffer pool, scan.go the circular
// scans, disk.go and fault.go the devices.
//
// Buffer memory — the in-memory disk's pages, the pool's frame buffers and
// the fixed-width columns decoded from them — is pages of internal/arena, each
// with one owner that takes it and frees it. By arena.Role:
//
//   - Device: a MemDisk page. WritePage takes it when the page is appended;
//     the disk's Close frees it.
//   - Frame: a Frame's buffer. The frame takes it on its first load and keeps
//     it across evictions; BufferPool.Close (or the last Unpin after it) frees
//     it.
//   - Held: a frame buffer evicted, or its pool closed, while readers still
//     hold the page's batch with columns undecoded. The frame retags it and
//     gives it, without a copy, to the batch's pageSource, which frees it at
//     the batch's last Release; that is what lets a batch outlive both.
//   - Decoded: a decoded fixed-width column of an opened page. The page's
//     pageSource takes it on decode and frees it at the batch's last Release.
//
// An owner the collector finds before it let go (a disk, a pool or a source
// never closed) gives its pages back from a finalizer.
package storage

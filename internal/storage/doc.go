// Package storage is the Shore-MT substitute: a page-based storage manager
// with heap files, a pinning buffer pool with clock eviction, a disk interface
// with one in-memory implementation (a latency model on one device clock, for
// repeatable experiments) and a fault-injecting wrapper, and circular shared
// scans — QPipe's storage-layer sharing primitive. (CJOIN's scanner runs a
// circular scan of its own over HeapFile.PageCols and attaches no cursor.)
//
// The files follow the roles: format.go is the page layout both sides of it
// share, chunk.go the load chunk and the RowWriter that fills it, builder.go
// the page builder (with the zone entries it writes), reader.go the page
// reader (the directory, validation, lazy column decode and zone entries),
// heapfile.go the bulk-load writer that keeps each page's zone maps, pool.go
// the buffer pool, scan.go the circular scans, disk.go and fault.go the
// devices. A heap file's schema is the storage contract: a column holds NULLs
// and values of its declared kind, and a load refuses any other datum with a
// *KindError.
//
// Bulk load moves 8 bytes a value. Load hands its fill a RowWriter into a
// chunk of typed columns — an []int64, []float64 or []string chosen by the
// column's kind, and a NULL mask — and Append writes its Datum rows into the
// same kind of chunk: there is one admission path. The page builder admits a
// chunk a block of up to 64 rows at a time: each column folds the block into
// its state (frame of reference, kind runs, dictionary), the size bounds are
// summed once and the block's payload is copied in; only the block that
// overflows the page is walked row by row, and a column's first value on a
// page, where its bound may shrink, is admitted alone. The cut is the greedy
// one a row at a time would make, byte for byte.
//
// Buffer memory — the in-memory disk's pages and the fixed-width columns
// decoded from them — is pages of internal/arena, each with one owner that
// takes it and frees it. By arena.Role:
//
//   - Device: a MemDisk page. WritePage takes a fresh one for every write,
//     has the writer's fill encode into it (the page builder writes its page
//     there, once) and appends it or replaces the file's page with it. A
//     read lends the page itself (a Lease), never a copy: the disk counts one
//     reference for itself and one per lease, and frees the page at its last
//     — Close drops the disk's own. The pool's frames hold leases, not bytes, and a batch
//     opened from a frame holds a lease of its own (its pageSource takes it
//     at open and returns it at the batch's last Release). That is what lets
//     a batch outlive its frame, its pool and its disk.
//   - Decoded: a decoded fixed-width column of an opened page. The page's
//     pageSource takes it on decode and frees it at the batch's last Release.
//     A frame caches its page, never its decode: every reader opens the page
//     into a batch of its own, so decoded pages exist exactly while some
//     reader holds a batch.
//
// Lent bytes are never written: a MemDisk overwrite installs a fresh page
// and a FaultDisk corrupts a private copy.
//
// An owner the collector finds before it let go (a disk, a pool or a source
// never closed) gives its pages and leases back from a finalizer.
package storage

//go:build linux && !race

package arena

import "syscall"

// mapped: pages are carved from anonymous mappings outside the Go heap.
const mapped = true

func mapChunk() ([]byte, error) {
	return syscall.Mmap(-1, 0, chunkSize, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
}

func unmapChunk(chunk []byte) {
	if err := syscall.Munmap(chunk); err != nil {
		panic("arena: munmap: " + err.Error())
	}
}

// discard tells the operating system that b's contents are not needed: the
// memory goes back now and reads as zeros when it is next touched. Advice a
// system declines costs residency, not correctness.
func discard(b []byte) { _ = syscall.Madvise(b, syscall.MADV_DONTNEED) }

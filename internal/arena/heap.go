//go:build !linux || race

package arena

// mapped: every page is a plain allocation that the collector takes back once
// it is freed here and dropped by its holder, and that the race detector
// watches like any other memory.
const mapped = false

func mapChunk() ([]byte, error) { panic("arena: no mappings in this build") }

func unmapChunk([]byte) {}

func discard([]byte) {}

package storage

import "encoding/binary"

// Zone maps are per-column min-max summaries persisted in the page header
// region, between the segment offsets and the first segment, readable
// without decoding any segment:
//
//	[dirEnd:..] one entry per column: a flags byte, then — when ZoneInt is
//	            set — int64 min and max (8 bytes LE each), then — when
//	            ZoneStr is set — the minimum and maximum string, each as
//	            uvarint length + bytes.
//
// Int-class bounds cover int, date and bool rows (everything carried in the
// int64 payload); string bounds are the sorted dictionary's first and last
// entries. Bounds span only non-NULL rows — under the engine's NULL→false
// predicate semantics a NULL row can never satisfy a pushed-down predicate,
// so bounds over the non-NULL rows are exactly what a can-match check needs.
// A column with no flag set is unknown (mixed value classes or floats) and
// must never prune.

// ZoneMap flag bits.
const (
	// ZoneInt marks valid int-class bounds in MinI/MaxI.
	ZoneInt uint8 = 1 << iota
	// ZoneStr marks valid string bounds in MinS/MaxS.
	ZoneStr
	// ZoneNullOnly marks a column whose every row is NULL. It is recorded
	// for observability but conservatively never prunes.
	ZoneNullOnly
)

// ZoneMap summarizes one column of one page.
type ZoneMap struct {
	Flags      uint8
	MinI, MaxI int64  // valid when Flags&ZoneInt != 0
	MinS, MaxS string // valid when Flags&ZoneStr != 0
}

// Unknown reports whether the column carries no usable bounds (and so can
// never rule a page out).
func (z ZoneMap) Unknown() bool { return z.Flags&(ZoneInt|ZoneStr) == 0 }

// zone derives the column's zone map from the builder's incremental state.
// Called before encode(), so the dictionary codes are not assigned yet; the
// string bounds come from a linear scan over the distinct entries.
func (c *colBuilder) zone() ZoneMap {
	var z ZoneMap
	switch c.class {
	case classInt:
		z.Flags = ZoneInt
		z.MinI, z.MaxI = c.minI, c.maxI
	case classStr:
		first := true
		for s := range c.dict {
			if first {
				z.MinS, z.MaxS = s, s
				first = false
				continue
			}
			if s < z.MinS {
				z.MinS = s
			}
			if s > z.MaxS {
				z.MaxS = s
			}
		}
		z.Flags = ZoneStr
	case classNull:
		if len(c.kinds) > 0 {
			z.Flags = ZoneNullOnly
		}
	}
	return z
}

// appendZone appends the on-page encoding of one zone entry.
func appendZone(buf []byte, z ZoneMap) []byte {
	buf = append(buf, z.Flags)
	if z.Flags&ZoneInt != 0 {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(z.MinI))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(z.MaxI))
	}
	if z.Flags&ZoneStr != 0 {
		buf = binary.AppendUvarint(buf, uint64(len(z.MinS)))
		buf = append(buf, z.MinS...)
		buf = binary.AppendUvarint(buf, uint64(len(z.MaxS)))
		buf = append(buf, z.MaxS...)
	}
	return buf
}

// intZoneUB is the size of an int-class zone entry: flags, min and max.
const intZoneUB = 1 + 16

// zoneUB bounds the on-page size of the column's zone entry for the size
// accounting: the flags byte, the int bounds while the column may take them,
// and two length-prefixed strings no longer than the longest dictionary entry
// while it may take those.
func (s *colState) zoneUB() int {
	switch s.class {
	case classNull:
		return intZoneUB + 2*uvarUB3
	case classInt:
		return intZoneUB
	case classStr:
		return 1 + 2*(uvarUB3+s.maxStrLen)
	}
	return 1
}

// readZone parses one zone entry, returning the entry and remaining bytes.
// Strings are copied out of the page so the zone map outlives the frame.
func readZone(data []byte) (ZoneMap, []byte, bool) {
	var z ZoneMap
	if len(data) < 1 {
		return z, nil, false
	}
	z.Flags = data[0]
	data = data[1:]
	if z.Flags&^(ZoneInt|ZoneStr|ZoneNullOnly) != 0 {
		return z, nil, false
	}
	if z.Flags&ZoneInt != 0 {
		if len(data) < 16 {
			return z, nil, false
		}
		z.MinI = int64(binary.LittleEndian.Uint64(data))
		z.MaxI = int64(binary.LittleEndian.Uint64(data[8:]))
		data = data[16:]
	}
	if z.Flags&ZoneStr != 0 {
		var ok bool
		if z.MinS, data, ok = readZoneStr(data); !ok {
			return z, nil, false
		}
		if z.MaxS, data, ok = readZoneStr(data); !ok {
			return z, nil, false
		}
	}
	return z, data, true
}

func readZoneStr(data []byte) (string, []byte, bool) {
	l, n := binary.Uvarint(data)
	if n <= 0 || uint64(len(data)-n) < l {
		return "", nil, false
	}
	return string(data[n : n+int(l)]), data[n+int(l):], true
}

// ReadPageZones extracts the per-column zone maps persisted in a page. It
// returns nil — "unknown, never prune" — for empty pages and anything
// malformed; a nil result is always a safe answer.
func ReadPageZones(page []byte) []ZoneMap {
	if checkPageHeader(page) != nil {
		return nil
	}
	nrows := int(binary.LittleEndian.Uint16(page[3:5]))
	ncols := int(binary.LittleEndian.Uint16(page[5:7]))
	if nrows == 0 || ncols == 0 {
		return nil
	}
	dirEnd := pageFixedHeader + 4*ncols
	if len(page) < dirEnd {
		return nil
	}
	// The zone directory must end before the first segment starts.
	limit := len(page)
	for c := 0; c < ncols; c++ {
		off := int(binary.LittleEndian.Uint32(page[pageFixedHeader+4*c:]))
		if off < dirEnd || off > len(page) {
			return nil
		}
		if off < limit {
			limit = off
		}
	}
	zones := make([]ZoneMap, ncols)
	data := page[dirEnd:limit]
	for c := range zones {
		var ok bool
		if zones[c], data, ok = readZone(data); !ok {
			return nil
		}
	}
	return zones
}

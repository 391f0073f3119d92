package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"sync"

	"repro/internal/engine"
	"repro/internal/ssb"
	"repro/internal/types"
	"repro/internal/workload"
)

// digest is an order-insensitive canonical hash of a result: the row count
// plus the sum and the xor of the per-row hashes. Two results with the same
// multiset of rows have the same digest whatever order they arrive in.
type digest struct {
	Rows int
	Sum  uint64
	Xor  uint64
}

func (d *digest) addRow(h uint64) {
	d.Rows++
	d.Sum += h
	d.Xor ^= h
}

// Canonical value tags. A float that holds a whole number is hashed as that
// integer, because encoding/json prints it without a fraction and the NDJSON
// side cannot tell the two apart.
const (
	tagNull = iota
	tagInt
	tagFloat
	tagString
	tagBool
)

// rowHasher hashes one row's values in column order.
type rowHasher struct {
	buf []byte
}

func (h *rowHasher) reset() { h.buf = h.buf[:0] }

func (h *rowHasher) null() { h.buf = append(h.buf, tagNull) }

func (h *rowHasher) int(v int64) {
	h.buf = append(h.buf, tagInt)
	h.buf = binary.LittleEndian.AppendUint64(h.buf, uint64(v))
}

func (h *rowHasher) float(f float64) {
	if f == math.Trunc(f) && math.Abs(f) < 1<<63 {
		h.int(int64(f))
		return
	}
	h.buf = append(h.buf, tagFloat)
	h.buf = binary.LittleEndian.AppendUint64(h.buf, math.Float64bits(f))
}

func (h *rowHasher) str(s string) {
	h.buf = append(h.buf, tagString)
	h.buf = binary.LittleEndian.AppendUint32(h.buf, uint32(len(s)))
	h.buf = append(h.buf, s...)
}

func (h *rowHasher) bool(b bool) {
	h.buf = append(h.buf, tagBool, 0)
	if b {
		h.buf[len(h.buf)-1] = 1
	}
}

// sum is the FNV-1a hash of the row's canonical bytes.
func (h *rowHasher) sum() uint64 {
	x := uint64(14695981039346656037)
	for _, b := range h.buf {
		x = (x ^ uint64(b)) * 1099511628211
	}
	return x
}

// digestRows hashes materialized rows the way queryserver's rowObject
// renders them: null, int, float and bool by value, every other kind by its
// String form.
func digestRows(rows []types.Row) digest {
	var d digest
	var h rowHasher
	for _, row := range rows {
		h.reset()
		for _, v := range row {
			switch v.K {
			case types.KindNull:
				h.null()
			case types.KindInt:
				h.int(v.Int())
			case types.KindFloat:
				h.float(v.Float())
			case types.KindBool:
				h.bool(v.Bool())
			default:
				h.str(v.String())
			}
		}
		d.addRow(h.sum())
	}
	return d
}

// digestNDJSON hashes an NDJSON body whose objects carry the named columns.
// Numbers are decoded as json.Number so that no digit is lost. An object
// with an "error" key is the server's mid-stream failure trailer.
func digestNDJSON(body []byte, cols []string) (digest, error) {
	var d digest
	var h rowHasher
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	for {
		var obj map[string]any
		if err := dec.Decode(&obj); err == io.EOF {
			return d, nil
		} else if err != nil {
			return d, fmt.Errorf("ndjson row %d: %w", d.Rows, err)
		}
		if msg, ok := obj["error"]; ok && len(obj) == 1 {
			return d, fmt.Errorf("server error trailer: %v", msg)
		}
		if len(obj) != len(cols) {
			return d, fmt.Errorf("ndjson row %d has %d columns, want %d", d.Rows, len(obj), len(cols))
		}
		h.reset()
		for _, name := range cols {
			v, ok := obj[name]
			if !ok {
				return d, fmt.Errorf("ndjson row %d lacks column %q", d.Rows, name)
			}
			switch x := v.(type) {
			case nil:
				h.null()
			case json.Number:
				if i, err := x.Int64(); err == nil {
					h.int(i)
				} else if f, err := x.Float64(); err == nil {
					h.float(f)
				} else {
					return d, fmt.Errorf("ndjson row %d: bad number %q", d.Rows, x)
				}
			case string:
				h.str(x)
			case bool:
				h.bool(x)
			default:
				return d, fmt.Errorf("ndjson row %d: column %q has nested value", d.Rows, name)
			}
		}
		d.addRow(h.sum())
	}
}

// oracle builds the reference evaluator: its own memory-resident
// environment holding the same data, and an engine that runs query-centric
// plans with SP, the result cache, folding, pruning and CJOIN all off.
func oracle(sf float64, clustered bool) (*workload.Env, *engine.Engine, error) {
	env, err := workload.NewSSBEnvCfg(workload.EnvConfig{SF: sf, Residency: workload.MemoryResident,
		Seed: dataSeed, DateClustered: clustered, NoPrune: true, NoFold: true})
	if err != nil {
		return nil, nil, fmt.Errorf("oracle environment: %w", err)
	}
	return env, engine.New(env.Cat, engine.Config{NoPrune: true}), nil
}

// computeDigests evaluates every spec's query-centric plan on eng.
func computeDigests(ctx context.Context, eng *engine.Engine, db *ssb.DB, specs []querySpec) ([]digest, error) {
	refs := make([]digest, len(specs))
	errs := make([]error, len(specs))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				res, err := eng.Execute(ctx, specs[i].make(db).Plan(false))
				if err != nil {
					errs[i] = fmt.Errorf("oracle query %s: %w", specs[i].label, err)
					continue
				}
				refs[i] = digestRows(res.Rows)
			}
		}()
	}
	for i := range specs {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return refs, nil
}

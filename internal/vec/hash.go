package vec

import "repro/internal/types"

// HashPrime is the FNV-1a multiplier of HashFold's key fold.
const HashPrime uint64 = 1099511628211

// nullKey is types.Null's HashKey.
var nullKey = types.Null.HashKey()

// HashFold folds one group-by key column into the per-row hash accumulator:
// for every i, h[i] = (h[i] ^ HashKey(v at sel[i])) * HashPrime. Each kind
// runs one typed loop; a dictionary-coded string column hashes each distinct
// dictionary entry once into lut and then folds per-row by code — the string
// bytes are touched len(Dict) times per page, not once per row.
//
// lut is the caller's reusable dictionary-hash buffer; the (possibly grown)
// buffer is returned so a caller looping over batches amortizes it.
func HashFold(v *Vec, sel []int32, h []uint64, lut []uint64) []uint64 {
	if v.HasDict() {
		if cap(lut) < len(v.Dict) {
			lut = make([]uint64, len(v.Dict))
		}
		lut = lut[:len(v.Dict)]
		for c, s := range v.Dict {
			lut[c] = types.HashKeyString(s)
		}
	}
	if v.Kind == types.KindNull {
		for i := range sel {
			h[i] = (h[i] ^ nullKey) * HashPrime
		}
		return lut
	}
	if v.HasNulls() {
		// The loops below fold a NULL row's payload, the zero value: trade
		// its key for NULL's beforehand.
		var zero uint64
		switch {
		case v.HasDict():
			zero = lut[0]
		case v.Kind == types.KindFloat:
			zero = types.HashKeyFloat(0)
		case v.Kind == types.KindString:
			zero = types.HashKeyString("")
		default:
			zero = types.HashKeyInt(0)
		}
		for i, r := range sel {
			if v.IsNull(int(r)) {
				h[i] ^= nullKey ^ zero
			}
		}
	}
	switch {
	case v.HasDict():
		vi := v.I
		for i, r := range sel {
			h[i] = (h[i] ^ lut[vi[r]]) * HashPrime
		}
	case v.Kind == types.KindFloat:
		vf := v.F
		for i, r := range sel {
			h[i] = (h[i] ^ types.HashKeyFloat(vf[r])) * HashPrime
		}
	case v.Kind == types.KindString:
		vs := v.S
		for i, r := range sel {
			h[i] = (h[i] ^ types.HashKeyString(vs[r])) * HashPrime
		}
	default:
		vi := v.I
		for i, r := range sel {
			h[i] = (h[i] ^ types.HashKeyInt(vi[r])) * HashPrime
		}
	}
	return lut
}

package vec

import "repro/internal/types"

// HashPrime is the FNV-1a multiplier of HashFold's key fold.
const HashPrime uint64 = 1099511628211

// HashFold folds one group-by key column into the per-row hash accumulator:
// for every i, h[i] = (h[i] ^ HashKey(v at sel[i])) * HashPrime. Homogeneous
// columns run one typed loop; dictionary-coded string columns hash each
// distinct dictionary entry once into lut and then fold per-row by code —
// the string bytes are touched len(Dict) times per page, not once per row.
//
// lut is the caller's reusable dictionary-hash buffer; the (possibly grown)
// buffer is returned so a caller looping over batches amortizes it.
func HashFold(v *Vec, sel []int32, h []uint64, lut []uint64) []uint64 {
	switch {
	case v.AllStr() && v.HasDict():
		if cap(lut) < len(v.Dict) {
			lut = make([]uint64, len(v.Dict))
		}
		lut = lut[:len(v.Dict)]
		for c, s := range v.Dict {
			lut[c] = types.HashKeyString(s)
		}
		vi := v.I
		for i, r := range sel {
			h[i] = (h[i] ^ lut[vi[r]]) * HashPrime
		}
	case v.AllInt():
		vi := v.I
		for i, r := range sel {
			h[i] = (h[i] ^ types.HashKeyInt(vi[r])) * HashPrime
		}
	case v.AllFloat():
		vf := v.F
		for i, r := range sel {
			h[i] = (h[i] ^ types.HashKeyFloat(vf[r])) * HashPrime
		}
	case v.AllStr():
		vs := v.S
		for i, r := range sel {
			h[i] = (h[i] ^ types.HashKeyString(vs[r])) * HashPrime
		}
	default:
		for i, r := range sel {
			h[i] = (h[i] ^ v.Datum(int(r)).HashKey()) * HashPrime
		}
	}
	return lut
}

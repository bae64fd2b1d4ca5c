package main

import (
	"reflect"
	"testing"
)

func drawStream(w *workload, seed int64, k int) ([]request, string) {
	st := newStream(w, w.n, seed)
	out := make([]request, k)
	for i := range out {
		out[i] = st.next()
	}
	return out, st.Hash()
}

// TestStreamDeterminism: a seed fixes the request stream byte for byte,
// and another seed changes it.
func TestStreamDeterminism(t *testing.T) {
	for _, w := range workloads {
		a, ha := drawStream(w, 1, 2000)
		b, hb := drawStream(w, 1, 2000)
		if ha != hb || !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 1 gave two different streams (%s, %s)", w.name, ha, hb)
		}
		_, hc := drawStream(w, 2, 2000)
		if hc == ha {
			t.Errorf("%s: seeds 1 and 2 gave the same stream %s", w.name, ha)
		}
		var ops [numOps]int
		for _, r := range a {
			ops[r.op]++
		}
		for op, share := range w.mix {
			lo := 0.0
			if op > 0 {
				lo = w.mix[op-1]
			}
			if want := (share - lo) * float64(len(a)); float64(ops[op]) < want*0.8 || float64(ops[op]) > want*1.2+5 {
				t.Errorf("%s: %d %s requests in %d, want about %.0f", w.name, ops[op], opNames[op], len(a), want)
			}
		}
	}
}

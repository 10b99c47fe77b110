package ml

import "testing"

func benchVector(n, stride, offset int) Vector {
	var v Vector
	for i := 0; i < n; i++ {
		v.Ind = append(v.Ind, int32(offset+i*stride))
		v.Val = append(v.Val, float64(i%7)+0.5)
	}
	return v
}

// BenchmarkLerp measures the SMOTE interpolation hot path. The linear
// merge replaces a per-call map build followed by a sort of its keys.
func BenchmarkLerp(b *testing.B) {
	a := benchVector(300, 3, 0) // overlaps c on multiples of 6
	c := benchVector(300, 2, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Lerp(a, c, 0.37)
	}
}

package tensor

import (
	"fmt"
	"math"
)

// Axis reductions, slicing and concatenation over the leading dimension,
// and numerically careful softmax/log-softmax helpers. These round out the
// tensor surface for library users beyond what the core training loop
// strictly needs.

// SumAxis0 returns the column sums of a matrix: shape [cols].
func SumAxis0(m *Tensor) *Tensor {
	if m.NDim() != 2 {
		panic("tensor: SumAxis0 requires a matrix")
	}
	rows, cols := m.Shape[0], m.Shape[1]
	out := New(cols)
	for i := 0; i < rows; i++ {
		row := m.Data[i*cols : (i+1)*cols]
		for j, v := range row {
			out.Data[j] += v
		}
	}
	return out
}

// SumAxis1 returns the row sums of a matrix: shape [rows].
func SumAxis1(m *Tensor) *Tensor {
	if m.NDim() != 2 {
		panic("tensor: SumAxis1 requires a matrix")
	}
	rows, cols := m.Shape[0], m.Shape[1]
	out := New(rows)
	for i := 0; i < rows; i++ {
		var s float64
		for _, v := range m.Data[i*cols : (i+1)*cols] {
			s += v
		}
		out.Data[i] = s
	}
	return out
}

// MeanAxis0 returns per-column means.
func MeanAxis0(m *Tensor) *Tensor {
	out := SumAxis0(m)
	if m.Shape[0] > 0 {
		out.Scale(1 / float64(m.Shape[0]))
	}
	return out
}

// VarAxis0 returns per-column population variances.
func VarAxis0(m *Tensor) *Tensor {
	rows, cols := m.Shape[0], m.Shape[1]
	mean := MeanAxis0(m)
	out := New(cols)
	if rows == 0 {
		return out
	}
	for i := 0; i < rows; i++ {
		row := m.Data[i*cols : (i+1)*cols]
		for j, v := range row {
			d := v - mean.Data[j]
			out.Data[j] += d * d
		}
	}
	out.Scale(1 / float64(rows))
	return out
}

// SliceRows returns a copy of rows [lo, hi) of the leading dimension.
func SliceRows(t *Tensor, lo, hi int) *Tensor {
	n := t.Shape[0]
	if lo < 0 || hi > n || lo > hi {
		panic(fmt.Sprintf("tensor: SliceRows[%d:%d] out of range for %d rows", lo, hi, n))
	}
	inner := t.Len() / max(n, 1)
	shape := append([]int{hi - lo}, t.Shape[1:]...)
	out := New(shape...)
	copy(out.Data, t.Data[lo*inner:hi*inner])
	return out
}

// ConcatRows stacks tensors along the leading dimension. All inputs must
// share trailing dimensions.
func ConcatRows(ts ...*Tensor) *Tensor {
	if len(ts) == 0 {
		panic("tensor: ConcatRows of nothing")
	}
	first := ts[0]
	inner := first.Len() / max(first.Shape[0], 1)
	total := 0
	for _, t := range ts {
		if t.Len()/max(t.Shape[0], 1) != inner || t.NDim() != first.NDim() {
			panic("tensor: ConcatRows shape mismatch")
		}
		total += t.Shape[0]
	}
	shape := append([]int{total}, first.Shape[1:]...)
	out := New(shape...)
	off := 0
	for _, t := range ts {
		copy(out.Data[off:], t.Data)
		off += t.Len()
	}
	return out
}

// Softmax returns row-wise softmax probabilities of a logits matrix, using
// max-subtraction for stability.
func Softmax(logits *Tensor) *Tensor {
	rows, cols := logits.Shape[0], logits.Shape[1]
	out := New(rows, cols)
	for i := 0; i < rows; i++ {
		row := logits.Data[i*cols : (i+1)*cols]
		dst := out.Data[i*cols : (i+1)*cols]
		m := row[0]
		for _, v := range row[1:] {
			if v > m {
				m = v
			}
		}
		var sum float64
		for j, v := range row {
			e := math.Exp(v - m)
			dst[j] = e
			sum += e
		}
		inv := 1 / sum
		for j := range dst {
			dst[j] *= inv
		}
	}
	return out
}

// LogSumExpRows returns the stable log-sum-exp of each matrix row.
func LogSumExpRows(logits *Tensor) *Tensor {
	rows, cols := logits.Shape[0], logits.Shape[1]
	out := New(rows)
	for i := 0; i < rows; i++ {
		row := logits.Data[i*cols : (i+1)*cols]
		m := row[0]
		for _, v := range row[1:] {
			if v > m {
				m = v
			}
		}
		var sum float64
		for _, v := range row {
			sum += math.Exp(v - m)
		}
		out.Data[i] = m + math.Log(sum)
	}
	return out
}

// Pad2D zero-pads the two trailing spatial dimensions of an [N, C, H, W]
// tensor by p on every side.
func Pad2D(x *Tensor, p int) *Tensor {
	if p == 0 {
		return x.Clone()
	}
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	out := New(n, c, h+2*p, w+2*p)
	ow := w + 2*p
	for img := 0; img < n; img++ {
		for ch := 0; ch < c; ch++ {
			srcBase := (img*c + ch) * h * w
			dstBase := (img*c+ch)*(h+2*p)*ow + p*ow + p
			for y := 0; y < h; y++ {
				copy(out.Data[dstBase+y*ow:dstBase+y*ow+w], x.Data[srcBase+y*w:srcBase+(y+1)*w])
			}
		}
	}
	return out
}

// Clamp limits every element to [lo, hi] in place.
func (t *Dense[E]) Clamp(lo, hi E) {
	for i, v := range t.Data {
		if v < lo {
			t.Data[i] = lo
		} else if v > hi {
			t.Data[i] = hi
		}
	}
}

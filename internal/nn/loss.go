package nn

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// CrossEntropy computes softmax cross-entropy. Given logits [N, K] and
// integer labels, it returns the mean loss and the gradient of the mean loss
// with respect to the logits — the starting point of the backward pass.
type CrossEntropy struct{}

// Loss returns the mean cross-entropy over the batch and the gradient
// dLoss/dlogits, shape [N, K]. Every label must lie in [0, K): a label the
// head cannot output panics, naming the row.
func (CrossEntropy) Loss(logits *tensor.Tensor, labels []int) (float64, *tensor.Tensor) {
	n, k := logits.Rows(), logits.Cols()
	if len(labels) != n {
		panic("nn: CrossEntropy label count mismatch")
	}
	for i, y := range labels {
		if y < 0 || y >= k {
			panic(fmt.Sprintf("nn: CrossEntropy label %d of row %d is outside [0, %d)", y, i, k))
		}
	}
	grad := tensor.New(n, k)
	var total float64
	invN := 1 / float64(n)
	for i := 0; i < n; i++ {
		row := logits.Data[i*k : (i+1)*k]
		grow := grad.Data[i*k : (i+1)*k]
		// Log-sum-exp with max subtraction for stability.
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
		logZ := m + math.Log(sum)
		// loss_i = −(logit_y − logZ); its gradient is softmax − onehot.
		for j, v := range row {
			p := math.Exp(v - logZ)
			if j == labels[i] {
				p--
				total -= v - logZ
			}
			grow[j] = p * invN
		}
	}
	return total * invN, grad
}

// Accuracy returns the fraction of rows whose argmax matches the label.
func Accuracy(logits *tensor.Tensor, labels []int) float64 {
	n := logits.Rows()
	if n == 0 {
		return 0
	}
	correct := 0
	for i := 0; i < n; i++ {
		if logits.ArgMaxRow(i) == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(n)
}

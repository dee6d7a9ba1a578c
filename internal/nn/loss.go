package nn

import (
	"fmt"
	"math"

	"cannikin/internal/tensor"
)

// SoftmaxCrossEntropy computes the mean cross-entropy loss of logits
// against integer class labels, and the gradient with respect to the
// logits (already divided by the batch size, so downstream gradients are
// per-sample averages as in Eq. 1).
func SoftmaxCrossEntropy(logits *tensor.T, labels []int) (float64, *tensor.T) {
	grad := tensor.New(logits.Rows(), logits.Cols())
	return SoftmaxCrossEntropyInto(grad, logits, labels), grad
}

// SoftmaxCrossEntropyInto is the destination-passing form of
// SoftmaxCrossEntropy: the logit gradient is written into grad (which must
// be shaped like logits and is fully overwritten) and the loss returned.
func SoftmaxCrossEntropyInto(grad, logits *tensor.T, labels []int) float64 {
	n, c := logits.Rows(), logits.Cols()
	if len(labels) != n {
		panic(fmt.Sprintf("nn: %d labels for %d rows", len(labels), n))
	}
	if grad.Rows() != n || grad.Cols() != c {
		panic(fmt.Sprintf("nn: SoftmaxCrossEntropyInto grad %dx%d, want %dx%d", grad.Rows(), grad.Cols(), n, c))
	}
	loss := 0.0
	for i := 0; i < n; i++ {
		row := logits.Row(i)
		label := labels[i]
		maxV := softmaxShift(row, label)
		sum := 0.0
		g := grad.Row(i)
		for j, v := range row {
			e := math.Exp(v - maxV)
			g[j] = e
			sum += e
		}
		for j := range g {
			g[j] /= sum
		}
		loss += -math.Log(math.Max(g[label], 1e-300))
		g[label] -= 1
		for j := range g {
			g[j] /= float64(n)
		}
	}
	return loss / float64(n)
}

// SoftmaxCrossEntropyLoss is the loss of SoftmaxCrossEntropyInto without its
// gradient — evaluation reads only the loss — and returns the identical
// bits: the same max-shift, the same ascending sum of exponentials, the same
// 1e-300 floor under the logarithm.
func SoftmaxCrossEntropyLoss(logits *tensor.T, labels []int) float64 {
	n := logits.Rows()
	if len(labels) != n {
		panic(fmt.Sprintf("nn: %d labels for %d rows", len(labels), n))
	}
	loss := 0.0
	for i := 0; i < n; i++ {
		row := logits.Row(i)
		label := labels[i]
		maxV := softmaxShift(row, label)
		sum := 0.0
		for _, v := range row {
			sum += math.Exp(v - maxV)
		}
		loss += -math.Log(math.Max(math.Exp(row[label]-maxV)/sum, 1e-300))
	}
	return loss / float64(n)
}

// softmaxShift checks label against the row's classes and returns the row
// maximum, the shift that keeps the softmax's exponentials from overflowing.
func softmaxShift(row []float64, label int) float64 {
	if label < 0 || label >= len(row) {
		panic(fmt.Sprintf("nn: label %d out of range [0, %d)", label, len(row)))
	}
	maxV := row[0]
	for _, v := range row[1:] {
		if v > maxV {
			maxV = v
		}
	}
	return maxV
}

// Accuracy returns the fraction of rows whose argmax matches the label.
func Accuracy(logits *tensor.T, labels []int) float64 {
	n := logits.Rows()
	if len(labels) != n {
		panic(fmt.Sprintf("nn: %d labels for %d rows", len(labels), n))
	}
	correct := 0
	for i := 0; i < n; i++ {
		row := logits.Row(i)
		best := 0
		for j, v := range row {
			if v > row[best] {
				best = j
			}
		}
		if best == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(n)
}

// MSE computes the mean squared error between predictions and targets and
// the gradient with respect to predictions.
func MSE(pred, target *tensor.T) (float64, *tensor.T) {
	if pred.Rows() != target.Rows() || pred.Cols() != target.Cols() {
		panic("nn: MSE shape mismatch")
	}
	n := float64(pred.Rows() * pred.Cols())
	grad := pred.Clone().Sub(target)
	loss := grad.SqNorm() / n
	grad.Scale(2 / n)
	return loss, grad
}

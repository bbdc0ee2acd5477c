package tensor

import (
	"fmt"
	"math"
)

// Layer passes: the elementwise and per-channel loops of the layers K-FAC
// does not precondition — BatchNorm's statistics, normalisation and input
// gradient, the rectifier and its gradient, the residual sum and SGD's
// momentum update. A per-channel pass reads its activation as [rows, C]
// (channels-last: one sample position per row, one channel per column),
// where C is the length of its per-channel operands.
//
// Each pass has a portable scalar implementation (always compiled; the
// conformance oracle and the only path under purego or off amd64) and an
// AVX2 twin that simd_amd64.go swaps in at init under the process's one CPU
// decision (HasAVX2). A twin repeats its oracle's operations lane by lane,
// so both give the same bits, a NaN's payload aside: the lanes of a
// per-channel pass are channels, so each channel still sums its rows in row
// order, and a multiply followed by an add stays two roundings, as Go keeps
// them on amd64. A twin covers whole vectors only — the first C&^3 channels
// of a per-channel pass, the first len&^3 elements of an elementwise one —
// and the oracle runs the rest.

// Dispatch variables — overwritten by the amd64 SIMD init when available.
// A per-channel implementation runs channels [lo, hi).
var (
	channelSumsImpl    = channelSumsGo
	channelSqDevsImpl  = channelSqDevsGo
	channelSumPairImpl = channelSumPairGo
	normalizeImpl      = normalizeGo
	normalizeGradImpl  = normalizeGradGo
	rectifyImpl        = rectifyGo
	addRectifyImpl     = addRectifyGo
	rectifyGradImpl    = rectifyGradGo
	addImpl            = addGo
	momentumStepImpl   = momentumStepGo
)

// channelSplit checks a per-channel pass's operands — every per-channel
// slice of length c, every activation slice a whole number of c-wide rows
// of length n — and returns the vector channels c&^3.
func channelSplit(pass string, c, n int, perChannel ...int) int {
	for _, l := range perChannel {
		if l != c {
			panic(fmt.Sprintf("tensor: %s per-channel length %d, want %d", pass, l, c))
		}
	}
	if (c == 0 && n != 0) || (c != 0 && n%c != 0) {
		panic(fmt.Sprintf("tensor: %s: %d elements are not rows of %d channels", pass, n, c))
	}
	return c &^ 3
}

// sameLen panics unless every length equals n, and returns n&^3.
func sameLen(pass string, n int, lens ...int) int {
	for _, l := range lens {
		if l != n {
			panic(fmt.Sprintf("tensor: %s length mismatch %d vs %d", pass, l, n))
		}
	}
	return n &^ 3
}

// ChannelSums overwrites sum with the per-channel sums of the [rows, C] x:
// sum[ch] = Σ_r x[r·C+ch], from +0 in row order, C = len(sum).
func ChannelSums(sum, x []float64) {
	v := channelSplit("ChannelSums", len(sum), len(x))
	channelSumsImpl(sum, x, 0, v)
	if v < len(sum) {
		channelSumsGo(sum, x, v, len(sum))
	}
}

// ChannelSqDevs overwrites sq with the per-channel sums of squared
// deviations of the [rows, C] x from mean: sq[ch] = Σ_r d·d with
// d = x[r·C+ch] − mean[ch], from +0 in row order, C = len(sq).
func ChannelSqDevs(sq, x, mean []float64) {
	v := channelSplit("ChannelSqDevs", len(sq), len(x), len(mean))
	channelSqDevsImpl(sq, x, mean, 0, v)
	if v < len(sq) {
		channelSqDevsGo(sq, x, mean, v, len(sq))
	}
}

// ChannelSumPair overwrites s and sp with the two per-channel sums of a
// normalisation's backward pass over the [rows, C] dy and xh: s[ch] = Σ_r dy
// and sp[ch] = Σ_r dy·xh, each from +0 in row order, C = len(s).
func ChannelSumPair(s, sp, dy, xh []float64) {
	v := channelSplit("ChannelSumPair", len(s), len(dy), len(sp))
	sameLen("ChannelSumPair", len(dy), len(xh))
	channelSumPairImpl(s, sp, dy, xh, 0, v)
	if v < len(s) {
		channelSumPairGo(s, sp, dy, xh, v, len(s))
	}
}

// Normalize writes the [rows, C] normalised xh = (x − mean)·inv and the
// affine out = gamma·xh + beta, every per-channel operand of length C.
func Normalize(xh, out, x, mean, inv, gamma, beta []float64) {
	v := channelSplit("Normalize", len(mean), len(x), len(inv), len(gamma), len(beta))
	sameLen("Normalize", len(x), len(xh), len(out))
	normalizeImpl(xh, out, x, mean, inv, gamma, beta, 0, v)
	if v < len(mean) {
		normalizeGo(xh, out, x, mean, inv, gamma, beta, v, len(mean))
	}
}

// NormalizeGrad writes a normalisation's input gradient over the [rows, C]
// dy and xh: dx = k·((n·dy − s) − xh·sp), with the per-channel k, s and sp of
// length C (BatchNorm's k = γ·inv/n, and s, sp from ChannelSumPair).
func NormalizeGrad(dx, dy, xh, k, s, sp []float64, n float64) {
	v := channelSplit("NormalizeGrad", len(k), len(dy), len(s), len(sp))
	sameLen("NormalizeGrad", len(dy), len(dx), len(xh))
	normalizeGradImpl(dx, dy, xh, k, s, sp, n, 0, v)
	if v < len(k) {
		normalizeGradGo(dx, dy, xh, k, s, sp, n, v, len(k))
	}
}

// Rectify writes dst = rectify(src) elementwise.
func Rectify(dst, src []float64) {
	v := sameLen("Rectify", len(src), len(dst))
	rectifyImpl(dst[:v], src[:v])
	rectifyGo(dst[v:], src[v:])
}

// AddRectify writes dst = rectify(a + b) elementwise.
func AddRectify(dst, a, b []float64) {
	v := sameLen("AddRectify", len(a), len(dst), len(b))
	addRectifyImpl(dst[:v], a[:v], b[:v])
	addRectifyGo(dst[v:], a[v:], b[v:])
}

// RectifyGrad writes dx = g where the rectified output out is positive and
// +0 elsewhere.
func RectifyGrad(dx, g, out []float64) {
	v := sameLen("RectifyGrad", len(out), len(dx), len(g))
	rectifyGradImpl(dx[:v], g[:v], out[:v])
	rectifyGradGo(dx[v:], g[v:], out[v:])
}

// Add writes dst = a + b elementwise.
func Add(dst, a, b []float64) {
	v := sameLen("Add", len(a), len(dst), len(b))
	addImpl(dst[:v], a[:v], b[:v])
	addGo(dst[v:], a[v:], b[v:])
}

// MomentumStep applies one heavy-ball SGD update with L2 weight decay to the
// weights w, their momentum buffer buf and gradient g, elementwise:
//
//	d = g + wd·w   (d = g when wd is 0)
//	buf = momentum·buf + d
//	w -= lr·buf
func MomentumStep(w, buf, g []float64, lr, momentum, wd float64) {
	v := sameLen("MomentumStep", len(g), len(w), len(buf))
	momentumStepImpl(w[:v], buf[:v], g[:v], lr, momentum, wd)
	momentumStepGo(w[v:], buf[v:], g[v:], lr, momentum, wd)
}

// The scalar oracles. A per-channel one runs channels [lo, hi) of rows
// len(per-channel operand) wide.

func channelSumsGo(sum, x []float64, lo, hi int) {
	c := len(sum)
	clear(sum[lo:hi])
	for r := 0; r < len(x); r += c {
		for ch, v := range x[r+lo : r+hi] {
			sum[lo+ch] += v
		}
	}
}

func channelSqDevsGo(sq, x, mean []float64, lo, hi int) {
	c := len(sq)
	clear(sq[lo:hi])
	for r := 0; r < len(x); r += c {
		for ch, v := range x[r+lo : r+hi] {
			d := v - mean[lo+ch]
			sq[lo+ch] += d * d
		}
	}
}

func channelSumPairGo(s, sp, dy, xh []float64, lo, hi int) {
	c := len(s)
	clear(s[lo:hi])
	clear(sp[lo:hi])
	for r := 0; r < len(dy); r += c {
		x := xh[r+lo : r+hi]
		for ch, d := range dy[r+lo : r+hi] {
			s[lo+ch] += d
			sp[lo+ch] += d * x[ch]
		}
	}
}

func normalizeGo(xh, out, x, mean, inv, gamma, beta []float64, lo, hi int) {
	c := len(mean)
	for r := 0; r < len(x); r += c {
		h, o := xh[r+lo:r+hi], out[r+lo:r+hi]
		for ch, v := range x[r+lo : r+hi] {
			h[ch] = (v - mean[lo+ch]) * inv[lo+ch]
			o[ch] = gamma[lo+ch]*h[ch] + beta[lo+ch]
		}
	}
}

func normalizeGradGo(dx, dy, xh, k, s, sp []float64, n float64, lo, hi int) {
	c := len(k)
	for r := 0; r < len(dy); r += c {
		d, h := dx[r+lo:r+hi], xh[r+lo:r+hi]
		for ch, g := range dy[r+lo : r+hi] {
			d[ch] = k[lo+ch] * (n*g - s[lo+ch] - h[ch]*sp[lo+ch])
		}
	}
}

// rectify returns max(v, 0) with every input that is not positive — negative
// values, −0 and NaN — mapped to +0. The comparison selects a bit mask, not
// a path, so it compiles to a conditional move: a sign pattern the branch
// predictor cannot learn costs nothing. The AVX2 twin is VMAXPD with +0 as
// the second source, which returns that source for each of these inputs.
func rectify(v float64) float64 {
	var keep uint64
	if v > 0 {
		keep = ^uint64(0)
	}
	return math.Float64frombits(math.Float64bits(v) & keep)
}

func rectifyGo(dst, src []float64) {
	dst = dst[:len(src)]
	for i, v := range src {
		dst[i] = rectify(v)
	}
}

func addRectifyGo(dst, a, b []float64) {
	dst, b = dst[:len(a)], b[:len(a)]
	for i, v := range a {
		dst[i] = rectify(v + b[i])
	}
}

// rectifyGradGo keeps g where out's bits are not all zero: a rectified value
// is positive exactly then, so the kept output is the mask and no branch is
// taken.
func rectifyGradGo(dx, g, out []float64) {
	dx, g = dx[:len(out)], g[:len(out)]
	for i, o := range out {
		b := math.Float64bits(o)
		dx[i] = math.Float64frombits(math.Float64bits(g[i]) & uint64(int64(b|-b)>>63))
	}
}

func addGo(dst, a, b []float64) {
	dst, b = dst[:len(a)], b[:len(a)]
	for i, v := range a {
		dst[i] = v + b[i]
	}
}

func momentumStepGo(w, buf, g []float64, lr, momentum, wd float64) {
	w, buf = w[:len(g)], buf[:len(g)]
	for j, gj := range g {
		if wd != 0 {
			gj += wd * w[j]
		}
		buf[j] = momentum*buf[j] + gj
		w[j] -= lr * buf[j]
	}
}

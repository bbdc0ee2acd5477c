// Package plot renders simple ASCII line charts and bar charts so the
// experiment harness can *draw* the paper's figures in a terminal, not just
// print their underlying series. Charts are deterministic text, suitable
// for golden-file comparison in tests.
package plot

import (
	"fmt"
	"math"
	"strings"
)

// Series is one named line of y-values over an implicit 0..n-1 x-axis.
type Series struct {
	Name   string
	Values []float64
}

// markers are the runes series are drawn with, in series order.
var markers = []rune{'*', 'o', '+', 'x', '#', '@'}

// LineChart renders the series on a width×height character grid with a
// y-axis scale and a legend. All series share the x range [0, maxLen).
func LineChart(title string, width, height int, series ...Series) string {
	if width < 16 {
		width = 16
	}
	if height < 4 {
		height = 4
	}
	maxLen := 0
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, s := range series {
		if len(s.Values) > maxLen {
			maxLen = len(s.Values)
		}
		for _, v := range s.Values {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
	}
	if maxLen == 0 {
		return title + "\n(no data)\n"
	}
	if lo == hi {
		lo, hi = lo-1, hi+1
	}

	grid := make([][]rune, height)
	for r := range grid {
		grid[r] = []rune(strings.Repeat(" ", width))
	}
	for si, s := range series {
		marker := markers[si%len(markers)]
		for i, v := range s.Values {
			x := 0
			if maxLen > 1 {
				x = i * (width - 1) / (maxLen - 1)
			}
			yf := (v - lo) / (hi - lo)
			y := height - 1 - int(yf*float64(height-1)+0.5)
			if y < 0 {
				y = 0
			}
			if y >= height {
				y = height - 1
			}
			grid[y][x] = marker
		}
	}

	var b strings.Builder
	if title != "" {
		fmt.Fprintf(&b, "%s\n", title)
	}
	for r, row := range grid {
		// y-axis label on first, middle, last row.
		label := "          "
		switch r {
		case 0:
			label = fmt.Sprintf("%9.3g ", hi)
		case height - 1:
			label = fmt.Sprintf("%9.3g ", lo)
		case height / 2:
			label = fmt.Sprintf("%9.3g ", lo+(hi-lo)/2)
		}
		b.WriteString(label)
		b.WriteString("|")
		b.WriteString(string(row))
		b.WriteByte('\n')
	}
	b.WriteString(strings.Repeat(" ", 10))
	b.WriteString("+")
	b.WriteString(strings.Repeat("-", width))
	b.WriteByte('\n')
	fmt.Fprintf(&b, "%sx: 0..%d", strings.Repeat(" ", 11), maxLen-1)
	for si, s := range series {
		fmt.Fprintf(&b, "   %c %s", markers[si%len(markers)], s.Name)
	}
	b.WriteByte('\n')
	return b.String()
}

// Bar is one labeled bar value.
type Bar struct {
	Label string
	Value float64
}

// BarChart renders horizontal bars scaled to width characters.
func BarChart(title string, width int, bars []Bar) string {
	if width < 8 {
		width = 8
	}
	maxV := 0.0
	maxLabel := 0
	for _, b := range bars {
		if math.Abs(b.Value) > maxV {
			maxV = math.Abs(b.Value)
		}
		if len(b.Label) > maxLabel {
			maxLabel = len(b.Label)
		}
	}
	var sb strings.Builder
	if title != "" {
		fmt.Fprintf(&sb, "%s\n", title)
	}
	for _, b := range bars {
		n := 0
		if maxV > 0 {
			n = int(math.Abs(b.Value) / maxV * float64(width))
		}
		bar := strings.Repeat("█", n)
		if n == 0 && b.Value != 0 {
			bar = "▏"
		}
		fmt.Fprintf(&sb, "%-*s  %10.4g  %s\n", maxLabel, b.Label, b.Value, bar)
	}
	return sb.String()
}

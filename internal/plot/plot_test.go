package plot

import (
	"strings"
	"testing"
)

func TestLineChartBasics(t *testing.T) {
	out := LineChart("test chart", 40, 10,
		Series{Name: "up", Values: []float64{0, 1, 2, 3, 4}},
		Series{Name: "down", Values: []float64{4, 3, 2, 1, 0}},
	)
	if !strings.Contains(out, "test chart") {
		t.Error("missing title")
	}
	if !strings.Contains(out, "up") || !strings.Contains(out, "down") {
		t.Error("missing legend entries")
	}
	if !strings.Contains(out, "*") || !strings.Contains(out, "o") {
		t.Error("missing series markers")
	}
	// Axis labels include extremes.
	if !strings.Contains(out, "4") || !strings.Contains(out, "0") {
		t.Error("missing y-axis labels")
	}
}

func TestLineChartDeterministic(t *testing.T) {
	s := Series{Name: "s", Values: []float64{1, 5, 3}}
	a := LineChart("t", 30, 8, s)
	b := LineChart("t", 30, 8, s)
	if a != b {
		t.Error("chart not deterministic")
	}
}

func TestLineChartEmpty(t *testing.T) {
	out := LineChart("empty", 30, 8)
	if !strings.Contains(out, "no data") {
		t.Error("expected no-data message")
	}
}

func TestLineChartConstantSeries(t *testing.T) {
	out := LineChart("const", 30, 8, Series{Name: "c", Values: []float64{2, 2, 2}})
	if out == "" || strings.Contains(out, "NaN") {
		t.Error("constant series should render without NaN")
	}
}

func TestLineChartSingleValue(t *testing.T) {
	out := LineChart("one", 30, 8, Series{Name: "c", Values: []float64{1}})
	if !strings.Contains(out, "x: 0..0") {
		t.Error("single point axis wrong")
	}
}

func TestLineChartClampsTinyDims(t *testing.T) {
	out := LineChart("tiny", 1, 1, Series{Name: "c", Values: []float64{1, 2}})
	if out == "" {
		t.Error("tiny dims should still render")
	}
}

func TestBarChart(t *testing.T) {
	out := BarChart("bars", 20, []Bar{
		{"alpha", 10},
		{"beta", 5},
		{"zero", 0},
	})
	if !strings.Contains(out, "alpha") || !strings.Contains(out, "beta") {
		t.Error("missing labels")
	}
	// alpha's bar should be longer than beta's.
	lines := strings.Split(out, "\n")
	var alphaLen, betaLen int
	for _, l := range lines {
		n := strings.Count(l, "█")
		if strings.HasPrefix(l, "alpha") {
			alphaLen = n
		}
		if strings.HasPrefix(l, "beta") {
			betaLen = n
		}
	}
	if alphaLen <= betaLen {
		t.Errorf("bar lengths: alpha %d, beta %d", alphaLen, betaLen)
	}
}

func TestBarChartAllZero(t *testing.T) {
	out := BarChart("z", 20, []Bar{{"a", 0}})
	if out == "" {
		t.Error("zero bars should render")
	}
}

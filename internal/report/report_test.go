package report

import (
	"strings"
	"testing"
)

func TestTableAlignment(t *testing.T) {
	tb := NewTable("Demo", "Vector", "Distinct", "Entropy")
	tb.AddRow("DC", 59, 1.935)
	tb.AddRow("Merged Signals", 87, 2.767)
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, sep, 2 rows
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "Demo") {
		t.Errorf("missing title: %q", lines[0])
	}
	if !strings.Contains(lines[3], "1.935") {
		t.Errorf("float not formatted: %q", lines[3])
	}
	// Header and rows align at the same column offsets.
	if strings.Index(lines[1], "Distinct") != strings.Index(lines[4], "87") {
		t.Errorf("columns misaligned:\n%s", out)
	}
}

func TestHistogram(t *testing.T) {
	out := Histogram("H", []int{1, 2, 3}, []int{10, 5, 1}, []float64{0.625, 0.9375, 1}, 20)
	if !strings.Contains(out, "####################") {
		t.Errorf("max bar not full width:\n%s", out)
	}
	if !strings.Contains(out, "cdf=1.000") {
		t.Errorf("missing CDF:\n%s", out)
	}
	lines := strings.Count(out, "\n")
	if lines != 4 {
		t.Errorf("line count = %d", lines)
	}
	// Zero-frequency histograms must not divide by zero.
	_ = Histogram("", []int{1}, []int{0}, []float64{1}, 0)
}

func TestSeries(t *testing.T) {
	out := Series("S", []int{2, 4}, map[string][]float64{
		"DC":  {1.0, 1.0},
		"FFT": {0.9993, 1.0},
	}, []string{"DC", "FFT"})
	if !strings.Contains(out, "0.9993") {
		t.Errorf("missing value:\n%s", out)
	}
	if strings.Index(out, "DC") > strings.Index(out, "FFT") {
		t.Errorf("series order not respected:\n%s", out)
	}
}

func TestHeatmap(t *testing.T) {
	m := [][]float64{{1, 0.5}, {0.5, 1}}
	out := Heatmap("HM", []string{"A", "B"}, m)
	if !strings.Contains(out, "@@") {
		t.Errorf("diagonal not darkest:\n%s", out)
	}
	if !strings.Contains(out, "0.50") {
		t.Errorf("values missing:\n%s", out)
	}
	// Out-of-range values are clamped, not panicking.
	_ = Heatmap("", []string{"X"}, [][]float64{{1.7}})
	_ = Heatmap("", []string{"X"}, [][]float64{{-0.2}})
}

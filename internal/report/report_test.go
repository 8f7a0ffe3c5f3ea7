package report

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"fubar/internal/metrics"
)

func TestTableRender(t *testing.T) {
	tb := NewTable("demo", "name", "value", "note")
	tb.AddRow("alpha", 0.123456, "first")
	tb.AddRow("beta-long-name", 42, "second")
	tb.AddRow("gamma", 1500*time.Millisecond, "third")
	var buf bytes.Buffer
	if err := tb.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"demo", "alpha", "0.1235", "beta-long-name", "42", "1.5s"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// Header separator present and aligned: every line of the body must
	// be at least as wide as the widest cell column count.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) < 5 {
		t.Errorf("expected >= 5 lines, got %d", len(lines))
	}
}

func TestLineChartRender(t *testing.T) {
	s := metrics.NewSeries("utility")
	for i := 0; i <= 10; i++ {
		s.Add(time.Duration(i)*time.Second, float64(i)/10)
	}
	c := NewLineChart("progress", 40, 8)
	c.AddSeries(s)
	var buf bytes.Buffer
	if err := c.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "progress") {
		t.Error("title missing")
	}
	if !strings.Contains(out, "utility") {
		t.Error("legend missing")
	}
	if !strings.Contains(out, "*") {
		t.Error("no data points plotted")
	}
	// Rising series: the topmost grid row must contain a marker near the
	// right edge, the bottom row near the left.
	lines := strings.Split(out, "\n")
	var top string
	for _, l := range lines {
		if strings.Contains(l, "|") {
			top = l
			break
		}
	}
	if !strings.Contains(top, "*") {
		t.Errorf("top row has no marker: %q", top)
	}
}

func TestLineChartMultipleSeries(t *testing.T) {
	s1 := metrics.NewSeries("a")
	s2 := metrics.NewSeries("b")
	s1.Add(0, 0.2)
	s1.Add(time.Second, 0.4)
	s2.Add(0, 0.9)
	s2.Add(time.Second, 0.1)
	c := NewLineChart("two", 30, 6)
	c.AddSeries(s1)
	c.AddSeries(s2)
	var buf bytes.Buffer
	if err := c.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "*") || !strings.Contains(out, "+") {
		t.Error("second series marker missing")
	}
	if !strings.Contains(out, "0.900") || !strings.Contains(out, "0.100") {
		t.Error("Y labels do not span both series")
	}
}

func TestLineChartEmpty(t *testing.T) {
	c := NewLineChart("empty", 30, 6)
	var buf bytes.Buffer
	if err := c.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Error("empty chart rendered nothing")
	}
}

func TestCDFChartRender(t *testing.T) {
	cdf := metrics.NewCDF([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	c := NewCDFChart("delays", "ms", 40, 8)
	c.AddCDF("original", cdf)
	c.AddCDF("relaxed", metrics.NewCDF([]float64{5, 10, 15, 20}))
	var buf bytes.Buffer
	if err := c.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"delays", "ms", "original", "relaxed", "1.00", "0.00"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestCDFChartEmpty(t *testing.T) {
	c := NewCDFChart("none", "x", 30, 6)
	c.AddCDF("empty", metrics.NewCDF(nil))
	var buf bytes.Buffer
	if err := c.Render(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestSeriesCSV(t *testing.T) {
	s1 := metrics.NewSeries("u")
	s2 := metrics.NewSeries("v,w") // comma in name must be sanitized
	for i := 0; i <= 4; i++ {
		s1.Add(time.Duration(i)*time.Second, float64(i))
		s2.Add(time.Duration(i)*time.Second, float64(i)*2)
	}
	var buf bytes.Buffer
	if err := SeriesCSV(&buf, 5, s1, s2); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 6 {
		t.Fatalf("got %d lines, want header + 5", len(lines))
	}
	if lines[0] != "t_seconds,u,v;w" {
		t.Errorf("header = %q", lines[0])
	}
	last := strings.Split(lines[5], ",")
	if last[1] != "4.000000" || last[2] != "8.000000" {
		t.Errorf("last row = %v", last)
	}
	// Zero n falls back to a default.
	var buf2 bytes.Buffer
	if err := SeriesCSV(&buf2, 0, s1); err != nil {
		t.Fatal(err)
	}
	if len(strings.Split(strings.TrimSpace(buf2.String()), "\n")) < 10 {
		t.Error("default resolution too small")
	}
}

func TestSparkline(t *testing.T) {
	if got := Sparkline(nil); got != "" {
		t.Errorf("empty sparkline = %q", got)
	}
	got := Sparkline([]float64{0, 5, 10})
	if len([]rune(got)) != 3 {
		t.Errorf("sparkline length = %d, want 3", len([]rune(got)))
	}
	runes := []rune(got)
	if runes[0] >= runes[2] {
		t.Error("rising data did not render rising blocks")
	}
	flat := Sparkline([]float64{3, 3, 3})
	for _, r := range flat {
		if r != []rune("▁")[0] {
			t.Error("flat data should render the lowest block")
		}
	}
}

func TestTableRenderAligned(t *testing.T) {
	tb := NewTable("t", "name", "v")
	tb.AddRow("a", 1.5)
	tb.AddRow("long-name", 3*time.Second+456789*time.Microsecond)
	var buf bytes.Buffer
	if err := tb.Render(&buf); err != nil {
		t.Fatal(err)
	}
	want := "== t ==\n" +
		"name       v     \n" +
		"---------  ------\n" +
		"a          1.5000\n" +
		"long-name  3.456s\n"
	if got := buf.String(); got != want {
		t.Errorf("Render =\n%q\nwant\n%q", got, want)
	}
	// No title, no title line.
	untitled := NewTable("", "x")
	untitled.AddRow(7)
	buf.Reset()
	if err := untitled.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != "x\n-\n7\n" {
		t.Errorf("untitled Render = %q", got)
	}
}

func TestSeriesCSVEmptySeries(t *testing.T) {
	s := metrics.NewSeries("u")
	s.Add(0, 0)
	s.Add(2*time.Second, 2)
	var buf bytes.Buffer
	if err := SeriesCSV(&buf, 3, s, metrics.NewSeries("none")); err != nil {
		t.Fatal(err)
	}
	want := "t_seconds,u,none\n" +
		"0.000,0.000000,\n" +
		"1.000,1.000000,\n" +
		"2.000,2.000000,\n"
	if got := buf.String(); got != want {
		t.Errorf("SeriesCSV =\n%q\nwant\n%q", got, want)
	}
}

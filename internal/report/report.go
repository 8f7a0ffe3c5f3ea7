// Package report renders the evaluation's tables and figures as plain
// text: aligned tables, ASCII line charts for the Fig 3–5 time series,
// ASCII CDF plots for Figs 6–7, and CSV for external plotting.
package report

import (
	"fmt"
	"io"
	"math"
	"strings"
	"time"

	"fubar/internal/metrics"
)

// Table accumulates rows and renders them with aligned columns.
type Table struct {
	title   string
	headers []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{title: title, headers: headers}
}

// AddRow appends a row; values are formatted with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.4f", v)
		case time.Duration:
			row[i] = v.Truncate(time.Millisecond).String()
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// Render writes the table.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.title)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			for p := len(c); p < widths[i]; p++ {
				b.WriteByte(' ')
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.headers)
	for i, wd := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", wd))
	}
	b.WriteByte('\n')
	for _, r := range t.rows {
		writeRow(r)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// LineChart plots one or more named series against time in ASCII, the
// textual analogue of the paper's Fig 3–5 panels.
type LineChart struct {
	title  string
	width  int
	height int
	series []chartSeries
}

type chartSeries struct {
	name    string
	marker  byte
	samples []metrics.Sample
}

// NewLineChart creates a chart of the given plot area size (sensible
// minimums are enforced).
func NewLineChart(title string, width, height int) *LineChart {
	if width < 20 {
		width = 20
	}
	if height < 5 {
		height = 5
	}
	return &LineChart{title: title, width: width, height: height}
}

var markers = []byte{'*', '+', 'o', 'x', '#', '@'}

// AddSeries adds a named series; markers are assigned in order.
func (c *LineChart) AddSeries(s *metrics.Series) {
	c.series = append(c.series, chartSeries{
		name:    s.Name(),
		marker:  markers[len(c.series)%len(markers)],
		samples: s.Samples(),
	})
}

// Render draws the chart.
func (c *LineChart) Render(w io.Writer) error {
	var tMax time.Duration
	yMin, yMax := math.Inf(1), math.Inf(-1)
	for _, s := range c.series {
		for _, p := range s.samples {
			if p.T > tMax {
				tMax = p.T
			}
			if p.V < yMin {
				yMin = p.V
			}
			if p.V > yMax {
				yMax = p.V
			}
		}
	}
	if math.IsInf(yMin, 1) { // no data at all
		yMin, yMax = 0, 1
	}
	if yMax-yMin < 1e-12 {
		yMax = yMin + 1
	}
	grid := make([][]byte, c.height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", c.width))
	}
	plot := func(s chartSeries) {
		for _, p := range s.samples {
			var x int
			if tMax > 0 {
				x = int(float64(c.width-1) * float64(p.T) / float64(tMax))
			}
			y := int(float64(c.height-1) * (p.V - yMin) / (yMax - yMin))
			if x < 0 || x >= c.width || y < 0 || y >= c.height {
				continue
			}
			grid[c.height-1-y][x] = s.marker
		}
	}
	for _, s := range c.series {
		plot(s)
	}
	var b strings.Builder
	if c.title != "" {
		fmt.Fprintf(&b, "-- %s --\n", c.title)
	}
	for i, row := range grid {
		label := "        "
		switch i {
		case 0:
			label = fmt.Sprintf("%7.3f ", yMax)
		case c.height - 1:
			label = fmt.Sprintf("%7.3f ", yMin)
		}
		b.WriteString(label)
		b.WriteString("|")
		b.Write(row)
		b.WriteByte('\n')
	}
	b.WriteString("        +")
	b.WriteString(strings.Repeat("-", c.width))
	b.WriteByte('\n')
	fmt.Fprintf(&b, "        0%st=%s\n", strings.Repeat(" ", max(1, c.width-8-len(tMax.Truncate(time.Millisecond).String()))), tMax.Truncate(time.Millisecond))
	for _, s := range c.series {
		fmt.Fprintf(&b, "        %c %s\n", s.marker, s.name)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// CDFChart plots one or more CDFs in ASCII (Figs 6–7).
type CDFChart struct {
	title  string
	xLabel string
	width  int
	height int
	curves []cdfCurve
}

type cdfCurve struct {
	name   string
	marker byte
	cdf    *metrics.CDF
}

// NewCDFChart creates a CDF plot of the given size.
func NewCDFChart(title, xLabel string, width, height int) *CDFChart {
	if width < 20 {
		width = 20
	}
	if height < 5 {
		height = 5
	}
	return &CDFChart{title: title, xLabel: xLabel, width: width, height: height}
}

// AddCDF adds a named distribution.
func (c *CDFChart) AddCDF(name string, cdf *metrics.CDF) {
	c.curves = append(c.curves, cdfCurve{name: name, marker: markers[len(c.curves)%len(markers)], cdf: cdf})
}

// Render draws the chart: x is the value domain across all curves, y is
// cumulative probability 0..1.
func (c *CDFChart) Render(w io.Writer) error {
	xMin, xMax := math.Inf(1), math.Inf(-1)
	for _, cv := range c.curves {
		if cv.cdf.Len() == 0 {
			continue
		}
		vals := cv.cdf.Values()
		if vals[0] < xMin {
			xMin = vals[0]
		}
		if vals[len(vals)-1] > xMax {
			xMax = vals[len(vals)-1]
		}
	}
	if math.IsInf(xMin, 1) {
		xMin, xMax = 0, 1
	}
	if xMax-xMin < 1e-12 {
		xMax = xMin + 1
	}
	grid := make([][]byte, c.height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", c.width))
	}
	for _, cv := range c.curves {
		for x := 0; x < c.width; x++ {
			v := xMin + (xMax-xMin)*float64(x)/float64(c.width-1)
			p := cv.cdf.P(v)
			y := int(float64(c.height-1) * p)
			grid[c.height-1-y][x] = cv.marker
		}
	}
	var b strings.Builder
	if c.title != "" {
		fmt.Fprintf(&b, "-- %s --\n", c.title)
	}
	for i, row := range grid {
		label := "     "
		switch i {
		case 0:
			label = "1.00 "
		case c.height - 1:
			label = "0.00 "
		}
		b.WriteString(label)
		b.WriteString("|")
		b.Write(row)
		b.WriteByte('\n')
	}
	b.WriteString("     +")
	b.WriteString(strings.Repeat("-", c.width))
	b.WriteByte('\n')
	fmt.Fprintf(&b, "     %.3g%s%.3g (%s)\n", xMin, strings.Repeat(" ", max(1, c.width-12)), xMax, c.xLabel)
	for _, cv := range c.curves {
		fmt.Fprintf(&b, "     %c %s\n", cv.marker, cv.name)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// SeriesCSV emits aligned samples of several series as CSV: a time column
// followed by one column per series (resampled onto n common points).
func SeriesCSV(w io.Writer, n int, series ...*metrics.Series) error {
	if n <= 0 {
		n = 50
	}
	var tMax time.Duration
	for _, s := range series {
		if last, ok := s.Last(); ok && last.T > tMax {
			tMax = last.T
		}
	}
	var b strings.Builder
	b.WriteString("t_seconds")
	for _, s := range series {
		b.WriteByte(',')
		b.WriteString(strings.ReplaceAll(s.Name(), ",", ";"))
	}
	b.WriteByte('\n')
	for i := 0; i < n; i++ {
		var t time.Duration
		if n > 1 {
			t = time.Duration(float64(tMax) * float64(i) / float64(n-1))
		}
		fmt.Fprintf(&b, "%.3f", t.Seconds())
		for _, s := range series {
			v, ok := s.At(t)
			if !ok {
				b.WriteString(",")
				continue
			}
			fmt.Fprintf(&b, ",%.6f", v)
		}
		b.WriteByte('\n')
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Sparkline renders values as a compact unicode sparkline, useful in logs.
func Sparkline(values []float64) string {
	if len(values) == 0 {
		return ""
	}
	blocks := []rune("▁▂▃▄▅▆▇█")
	lo, hi := values[0], values[0]
	for _, v := range values {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	var b strings.Builder
	for _, v := range values {
		idx := 0
		if hi > lo {
			idx = int(float64(len(blocks)-1) * (v - lo) / (hi - lo))
		}
		b.WriteRune(blocks[idx])
	}
	return b.String()
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

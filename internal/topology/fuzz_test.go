package topology

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"fubar/internal/unit"
)

// linkRow is one directed link by name, the form two topologies that number
// their links differently (Write sorts them) are compared in.
type linkRow struct {
	from, to string
	capacity unit.Bandwidth
	delay    unit.Delay
	oneWay   bool
}

func linkRows(t *Topology) []linkRow {
	rows := make([]linkRow, 0, t.NumLinks())
	for _, l := range t.Links() {
		rows = append(rows, linkRow{t.NodeName(l.From), t.NodeName(l.To), l.Capacity, l.Delay, l.Reverse < 0})
	}
	slices.SortFunc(rows, func(a, b linkRow) int {
		return strings.Compare(fmt.Sprint(a), fmt.Sprint(b))
	})
	return rows
}

// writeParse is one Write → Parse round trip.
func writeParse(t *testing.T, topo *Topology) *Topology {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, topo); err != nil {
		t.Fatalf("Write: %v", err)
	}
	back, err := Parse(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("what Write wrote does not parse: %v\n%s", err, buf.String())
	}
	return back
}

// FuzzParse feeds Parse the text a fubard tenant may supply: it never
// panics, and whatever parses survives Write → Parse with the same name,
// node names in the same order, link endpoints and one-way flags, and the
// same capacities and delays to the resolution Write prints (three decimals
// of the printed unit); a second round trip then changes nothing at all.
//
// What it found, and what was done about each:
//   - "nan" and "inf" parsed as capacities and delays (strconv.ParseFloat
//     accepts them, NaN fails neither Build's "<= 0" nor its "< 0" check),
//     and a finite number could overflow to +Inf through its unit
//     multiplier ("1e305Gbps"). unit.ParseBandwidth and unit.ParseDelay now
//     refuse every non-finite value.
//   - A capacity under half a bit per second parses, is written as "0kbps",
//     and that text is refused ("capacity must be positive"). Documented at
//     Write and skipped here: no such link can carry a flow.
//   - A line over bufio.Scanner's 64 KiB token limit is an error, not a
//     truncated parse — documented at Parse.
func FuzzParse(f *testing.F) {
	he, err := HurricaneElectric(100 * unit.Mbps)
	if err != nil {
		f.Fatal(err)
	}
	ring, err := Ring(12, 4, 600*unit.Kbps, 3)
	if err != nil {
		f.Fatal(err)
	}
	wax, err := Waxman(20, 0.3, 0.3, 20*unit.Mbps, 50*unit.Millisecond, 5)
	if err != nil {
		f.Fatal(err)
	}
	for _, topo := range []*Topology{he, ring, wax} {
		var buf bytes.Buffer
		if err := Write(&buf, topo); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.String())
	}
	// cmd/fubard's smoke topology, as its tenants post it.
	f.Add("topology smoke-ring\nlink n0 n1 60Mbps 5ms\nlink n1 n2 60Mbps 5ms\nlink n2 n3 60Mbps 5ms\n" +
		"link n3 n4 60Mbps 5ms\nlink n4 n5 60Mbps 5ms\nlink n5 n0 60Mbps 5ms\nlink n0 n3 90Mbps 9ms\n")
	for _, bad := range []string{
		"",
		"topology x\ntopology y\nlink A B 1Mbps 1ms",
		"node A\ntopology late",
		"frobnicate A B",
		"link A B 100Mbps",
		"link A B 10parsecs 1ms",
		"link A B 10Mbps 1fortnight",
		"link A B -1Mbps 1ms",
		"link A B nanMbps 1ms",
		"link A B infkbps infs",
		"link A B 1e305Gbps 1e308s",
		"link A B 0.0001kbps 1ms",
		"link A A 10Mbps 1ms",
		"oneway A B 10Mbps 1ms\nnode C",
		"link A B 999.9996kbps 999.9996ms\nlink B A 2.0005Mbps 0.0004ms\noneway A B 1Gbps 1s",
		"# only a comment",
		"link A B 1Mbps 1ms " + strings.Repeat("x", 70_000),
		"node " + strings.Repeat("n", 70_000) + "\nlink A B 1Mbps 1ms",
	} {
		f.Add(bad)
	}
	f.Fuzz(func(t *testing.T, text string) {
		first, err := Parse(strings.NewReader(text))
		if err != nil {
			return
		}
		for _, l := range first.Links() {
			if math.IsNaN(float64(l.Capacity)) || math.IsInf(float64(l.Capacity), 0) || l.Capacity <= 0 ||
				math.IsNaN(float64(l.Delay)) || math.IsInf(float64(l.Delay), 0) || l.Delay < 0 {
				t.Fatalf("parsed a link with capacity %v, delay %v", float64(l.Capacity), float64(l.Delay))
			}
			if l.Capacity < 0.0005*unit.Kbps {
				t.Skip("a capacity Write prints as 0kbps: the documented exception")
			}
		}
		second := writeParse(t, first)
		if second.Name() != first.Name() || !slices.Equal(second.NodeNames(), first.NodeNames()) {
			t.Fatalf("round trip changed the name or the nodes: %q %q -> %q %q",
				first.Name(), first.NodeNames(), second.Name(), second.NodeNames())
		}
		a, b := linkRows(first), linkRows(second)
		if len(a) != len(b) {
			t.Fatalf("round trip changed the link count: %d -> %d", len(a), len(b))
		}
		// Write prints three decimals of a unit no larger than the value
		// (kbps and ms at the smallest): half a unit in the last place.
		near := func(x, y, floor float64) bool { return math.Abs(x-y) <= 0.0005*math.Max(math.Abs(x), floor)*(1+1e-9) }
		// Rounding can reorder rows that tie on endpoints, so match each
		// row of one side to an unused near row of the other.
		used := make([]bool, len(b))
	rows:
		for _, ra := range a {
			for j, rb := range b {
				if !used[j] && ra.from == rb.from && ra.to == rb.to && ra.oneWay == rb.oneWay &&
					near(float64(ra.capacity), float64(rb.capacity), float64(unit.Kbps)) &&
					near(float64(ra.delay), float64(rb.delay), float64(unit.Millisecond)) {
					used[j] = true
					continue rows
				}
			}
			t.Fatalf("link %+v did not survive the round trip; after it: %+v", ra, b)
		}
		third := writeParse(t, second)
		if third.Name() != second.Name() || !slices.Equal(third.NodeNames(), second.NodeNames()) ||
			!slices.Equal(linkRows(third), b) {
			t.Fatalf("a second round trip still changes the topology:\n %+v\n %+v", b, linkRows(third))
		}
	})
}

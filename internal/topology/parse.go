package topology

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"

	"fubar/internal/unit"
)

// Parse reads the plain-text topology format:
//
//	# comment
//	topology my-net
//	node NYC
//	link NYC LON 100Mbps 35ms
//	oneway NYC LON 100Mbps 35ms
//
// "node" lines are optional — "link" lines create nodes implicitly — but
// allow declaring isolated naming up front. The "topology" line names the
// result and must appear at most once, before any node/link lines. A line
// longer than bufio.Scanner's 64 KiB token limit is an error.
func Parse(r io.Reader) (*Topology, error) {
	sc := bufio.NewScanner(r)
	var b *Builder
	ensure := func() *Builder {
		if b == nil {
			b = NewBuilder("unnamed")
		}
		return b
	}
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "topology":
			if len(fields) != 2 {
				return nil, fmt.Errorf("topology: line %d: want 'topology <name>'", lineNo)
			}
			if b != nil {
				return nil, fmt.Errorf("topology: line %d: 'topology' must be the first directive", lineNo)
			}
			b = NewBuilder(fields[1])
		case "node":
			if len(fields) != 2 {
				return nil, fmt.Errorf("topology: line %d: want 'node <name>'", lineNo)
			}
			ensure().AddNode(fields[1])
		case "link", "oneway":
			if len(fields) != 5 {
				return nil, fmt.Errorf("topology: line %d: want '%s <a> <b> <capacity> <delay>'", lineNo, fields[0])
			}
			cap, err := unit.ParseBandwidth(fields[3])
			if err != nil {
				return nil, fmt.Errorf("topology: line %d: %v", lineNo, err)
			}
			delay, err := unit.ParseDelay(fields[4])
			if err != nil {
				return nil, fmt.Errorf("topology: line %d: %v", lineNo, err)
			}
			if fields[0] == "link" {
				ensure().AddLink(fields[1], fields[2], cap, delay)
			} else {
				ensure().AddOneWayLink(fields[1], fields[2], cap, delay)
			}
		default:
			return nil, fmt.Errorf("topology: line %d: unknown directive %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("topology: read: %v", err)
	}
	if b == nil {
		return nil, fmt.Errorf("topology: empty input")
	}
	return b.Build()
}

// Write serializes the topology in the format accepted by Parse. Links are
// written once per bidirectional pair, sorted by endpoint names, so link IDs
// do not survive a round trip; capacities and delays are written to three
// decimals of the unit they print in, so Parse(Write(t)) rounds them to that
// resolution once and is exact from then on (FuzzParse). A capacity under
// 0.0005 kbps is written as "0kbps", which Parse refuses.
func Write(w io.Writer, t *Topology) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "topology %s\n", t.Name())
	for _, n := range t.NodeNames() {
		fmt.Fprintf(bw, "node %s\n", n)
	}
	type row struct {
		a, b string
		cap  unit.Bandwidth
		del  unit.Delay
		one  bool
	}
	var rows []row
	for _, l := range t.Links() {
		if l.Reverse >= 0 && l.Reverse < l.ID {
			continue // reverse direction of an already-emitted link
		}
		rows = append(rows, row{
			a: t.NodeName(l.From), b: t.NodeName(l.To),
			cap: l.Capacity, del: l.Delay, one: l.Reverse < 0,
		})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].a != rows[j].a {
			return rows[i].a < rows[j].a
		}
		return rows[i].b < rows[j].b
	})
	for _, r := range rows {
		kw := "link"
		if r.one {
			kw = "oneway"
		}
		fmt.Fprintf(bw, "%s %s %s %s %s\n", kw, r.a, r.b, r.cap, r.del)
	}
	return bw.Flush()
}

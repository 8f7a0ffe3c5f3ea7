package topology

import (
	"bytes"
	"math"
	"slices"
	"strings"
	"testing"

	"fubar/internal/graph"
	"fubar/internal/unit"
)

func triangle(t *testing.T) *Topology {
	t.Helper()
	b := NewBuilder("tri")
	b.AddLink("A", "B", 100*unit.Mbps, 10*unit.Millisecond)
	b.AddLink("B", "C", 100*unit.Mbps, 10*unit.Millisecond)
	b.AddLink("A", "C", 50*unit.Mbps, 30*unit.Millisecond)
	topo, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return topo
}

func TestBuilderBasics(t *testing.T) {
	topo := triangle(t)
	if topo.NumNodes() != 3 {
		t.Errorf("NumNodes = %d, want 3", topo.NumNodes())
	}
	if topo.NumLinks() != 6 {
		t.Errorf("NumLinks = %d, want 6 directed", topo.NumLinks())
	}
	if topo.NumBidirectionalLinks() != 3 {
		t.Errorf("NumBidirectionalLinks = %d, want 3", topo.NumBidirectionalLinks())
	}
	if got := topo.Summary(); !strings.Contains(got, "tri") {
		t.Errorf("Summary = %q", got)
	}
}

func TestBuilderIdempotentNodes(t *testing.T) {
	b := NewBuilder("x")
	id1 := b.AddNode("A")
	id2 := b.AddNode("A")
	if id1 != id2 {
		t.Errorf("AddNode twice gave %d and %d", id1, id2)
	}
}

func TestBuildRejectsBadLinks(t *testing.T) {
	b := NewBuilder("bad")
	b.AddLink("A", "B", 0, 5*unit.Millisecond)
	if _, err := b.Build(); err == nil {
		t.Error("zero capacity accepted")
	}
	b2 := NewBuilder("bad2")
	b2.AddLink("A", "B", 10*unit.Mbps, -1)
	if _, err := b2.Build(); err == nil {
		t.Error("negative delay accepted")
	}
	b3 := NewBuilder("bad3")
	b3.AddLink("A", "A", 10*unit.Mbps, 1)
	if _, err := b3.Build(); err == nil {
		t.Error("self-link accepted")
	}
	nan := unit.Bandwidth(math.NaN())
	b4 := NewBuilder("bad4")
	b4.AddLink("A", "B", nan, 1)
	if _, err := b4.Build(); err == nil {
		t.Error("NaN capacity accepted")
	}
	b5 := NewBuilder("bad5")
	b5.AddLink("A", "B", 10*unit.Mbps, unit.Delay(math.NaN()))
	if _, err := b5.Build(); err == nil {
		t.Error("NaN delay accepted")
	}
}

func TestBuildRejectsDisconnected(t *testing.T) {
	b := NewBuilder("disc")
	b.AddLink("A", "B", 10*unit.Mbps, 1*unit.Millisecond)
	b.AddNode("C") // isolated
	if _, err := b.Build(); err == nil {
		t.Error("disconnected topology accepted")
	}
}

func TestReverseLinks(t *testing.T) {
	topo := triangle(t)
	for _, l := range topo.Links() {
		if l.Reverse < 0 {
			t.Fatalf("link %s has no reverse", topo.LinkName(l.ID))
		}
		r := topo.Link(l.Reverse)
		if r.From != l.To || r.To != l.From || r.Reverse != l.ID {
			t.Errorf("link %s reverse mismatch", topo.LinkName(l.ID))
		}
		if r.Capacity != l.Capacity || r.Delay != l.Delay {
			t.Errorf("link %s reverse attrs differ", topo.LinkName(l.ID))
		}
	}
}

func TestOneWayLink(t *testing.T) {
	b := NewBuilder("ow")
	b.AddLink("A", "B", 10*unit.Mbps, 1*unit.Millisecond)
	b.AddOneWayLink("B", "C", 10*unit.Mbps, 1*unit.Millisecond)
	b.AddOneWayLink("C", "A", 10*unit.Mbps, 1*unit.Millisecond)
	topo, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if topo.NumLinks() != 4 {
		t.Errorf("NumLinks = %d, want 4", topo.NumLinks())
	}
	if topo.NumBidirectionalLinks() != 3 {
		// one bidirectional pair + two oneways = 3 physical links
		t.Errorf("NumBidirectionalLinks = %d, want 3", topo.NumBidirectionalLinks())
	}
}

func TestPathMetrics(t *testing.T) {
	topo := triangle(t)
	p, ok := new(graph.Searcher).ShortestPath(topo.Graph(), 0, 2, graph.Constraints{}) // A->C
	if !ok {
		t.Fatal("no path A->C")
	}
	// Lowest delay is A->B->C at 20ms, despite A->C direct being one hop.
	if got := topo.PathDelay(p); got != 20*unit.Millisecond {
		t.Errorf("PathDelay = %v, want 20ms", got)
	}
	if got := topo.PathRTT(p); got != 40*unit.Millisecond {
		t.Errorf("PathRTT = %v, want 40ms", got)
	}
	if got := topo.PathBottleneck(p); got != 100*unit.Mbps {
		t.Errorf("PathBottleneck = %v, want 100Mbps", got)
	}
	if got := topo.PathBottleneck(graph.Path{}); got != 0 {
		t.Errorf("empty path bottleneck = %v, want 0", got)
	}
}

func TestWithUniformCapacity(t *testing.T) {
	topo := triangle(t)
	u, err := topo.WithUniformCapacity(75 * unit.Mbps)
	if err != nil {
		t.Fatalf("WithUniformCapacity: %v", err)
	}
	for _, l := range u.Links() {
		if l.Capacity != 75*unit.Mbps {
			t.Fatalf("link %s capacity = %v", u.LinkName(l.ID), l.Capacity)
		}
	}
	// Original untouched.
	if topo.Link(0).Capacity != 100*unit.Mbps {
		t.Error("WithUniformCapacity mutated the original")
	}
	if _, err := topo.WithUniformCapacity(0); err == nil {
		t.Error("zero capacity accepted")
	}
}

func TestWithLinkCapacity(t *testing.T) {
	b := NewBuilder("ow")
	b.AddLink("A", "B", 10*unit.Mbps, 1*unit.Millisecond)
	b.AddOneWayLink("B", "C", 10*unit.Mbps, 1*unit.Millisecond)
	b.AddOneWayLink("C", "A", 10*unit.Mbps, 1*unit.Millisecond)
	topo, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	// A bidirectional link changes in both directions; zero models a
	// failure and is accepted.
	rev := topo.Link(0).Reverse
	if rev < 0 {
		t.Fatal("link 0 has no reverse")
	}
	failed, err := topo.WithLinkCapacity(0, 0)
	if err != nil {
		t.Fatalf("WithLinkCapacity(0, 0): %v", err)
	}
	for _, l := range failed.Links() {
		want := 10 * unit.Mbps
		if l.ID == 0 || l.ID == rev {
			want = 0
		}
		if l.Capacity != want {
			t.Errorf("link %s capacity %v, want %v", failed.LinkName(l.ID), l.Capacity, want)
		}
	}
	// A one-way link changes alone.
	var oneWay LinkID = -1
	for _, l := range topo.Links() {
		if l.Reverse < 0 {
			oneWay = l.ID
			break
		}
	}
	halved, err := topo.WithLinkCapacity(oneWay, 5*unit.Mbps)
	if err != nil {
		t.Fatalf("WithLinkCapacity(%d): %v", oneWay, err)
	}
	for _, l := range halved.Links() {
		want := 10 * unit.Mbps
		if l.ID == oneWay {
			want = 5 * unit.Mbps
		}
		if l.Capacity != want {
			t.Errorf("link %s capacity %v, want %v", halved.LinkName(l.ID), l.Capacity, want)
		}
	}
	// Edge IDs and the graph stay shared; the original is untouched.
	if halved.Graph() != topo.Graph() || halved.NumLinks() != topo.NumLinks() {
		t.Error("WithLinkCapacity changed the link set")
	}
	if topo.Capacity(0) != 10*unit.Mbps || topo.Capacity(rev) != 10*unit.Mbps {
		t.Error("WithLinkCapacity mutated the original")
	}
	if _, err := topo.WithLinkCapacity(0, -1); err == nil {
		t.Error("negative capacity accepted")
	}
	for _, id := range []LinkID{-1, LinkID(topo.NumLinks())} {
		if _, err := topo.WithLinkCapacity(id, unit.Mbps); err == nil {
			t.Errorf("link %d outside the topology accepted", id)
		}
	}
}

func TestWithCapacities(t *testing.T) {
	topo := triangle(t)
	caps := make([]unit.Bandwidth, topo.NumLinks())
	for i := range caps {
		caps[i] = unit.Bandwidth(i) * unit.Mbps // link 0 fails
	}
	c, err := topo.WithCapacities(caps)
	if err != nil {
		t.Fatalf("WithCapacities: %v", err)
	}
	for i, want := range caps {
		if got := c.Capacity(LinkID(i)); got != want {
			t.Errorf("link %d capacity %v, want %v", i, got, want)
		}
	}
	// Directions are set independently, not mirrored as in
	// WithLinkCapacity.
	if r := c.Link(1).Reverse; r >= 0 && c.Capacity(r) == c.Capacity(1) {
		t.Errorf("link 1 and its reverse %d both %v", r, c.Capacity(1))
	}
	caps[2] = 99 * unit.Mbps
	if c.Capacity(2) != 2*unit.Mbps {
		t.Error("WithCapacities aliases the caller's slice")
	}
	if topo.Capacity(0) != 100*unit.Mbps {
		t.Error("WithCapacities mutated the original")
	}
	if _, err := topo.WithCapacities(caps[:len(caps)-1]); err == nil {
		t.Error("short capacity list accepted")
	}
	caps[3] = -unit.Mbps
	if _, err := topo.WithCapacities(caps); err == nil {
		t.Error("negative capacity accepted")
	}
}

func TestHurricaneElectricShape(t *testing.T) {
	topo, err := HurricaneElectric(100 * unit.Mbps)
	if err != nil {
		t.Fatalf("HurricaneElectric: %v", err)
	}
	if topo.NumNodes() != 31 {
		t.Errorf("NumNodes = %d, want 31", topo.NumNodes())
	}
	if topo.NumBidirectionalLinks() != 56 {
		t.Errorf("bidirectional links = %d, want 56", topo.NumBidirectionalLinks())
	}
	if topo.NumLinks() != 112 {
		t.Errorf("directed links = %d, want 112", topo.NumLinks())
	}
	if err := topo.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
	// All-pairs reachability and plausible delay spread.
	g := topo.Graph()
	var maxDelay unit.Delay
	for src := 0; src < topo.NumNodes(); src++ {
		tree := new(graph.Searcher).ShortestPathTree(g, graph.NodeID(src), graph.Constraints{})
		for dst := 0; dst < topo.NumNodes(); dst++ {
			p, ok := tree.Path(g, graph.NodeID(dst))
			if !ok {
				t.Fatalf("no path %s -> %s", topo.NodeName(graph.NodeID(src)), topo.NodeName(graph.NodeID(dst)))
			}
			if unit.Delay(p.Weight) > maxDelay {
				maxDelay = unit.Delay(p.Weight)
			}
		}
	}
	if maxDelay < 50*unit.Millisecond || maxDelay > 400*unit.Millisecond {
		t.Errorf("max one-way shortest delay = %v, want within [50ms, 400ms]", maxDelay)
	}
}

func TestGeoDelay(t *testing.T) {
	// NYC -> London is ~5570 km great circle: expect ~36ms one way with
	// 1.3 slack at 200 km/ms.
	d := GeoDelay(40.71, -74.01, 51.51, -0.13)
	if d < 30*unit.Millisecond || d > 45*unit.Millisecond {
		t.Errorf("NYC->LON delay = %v, want ~36ms", d)
	}
	// Same point floors at 0.1ms.
	if d := GeoDelay(10, 10, 10, 10); d != unit.Delay(0.1) {
		t.Errorf("zero-distance delay = %v, want 0.1ms", d)
	}
	// Symmetry.
	if GeoDelay(1, 2, 3, 4) != GeoDelay(3, 4, 1, 2) {
		t.Error("GeoDelay not symmetric")
	}
}

func TestRingGenerator(t *testing.T) {
	topo, err := Ring(10, 5, 10*unit.Mbps, 1)
	if err != nil {
		t.Fatalf("Ring: %v", err)
	}
	if topo.NumNodes() != 10 {
		t.Errorf("nodes = %d", topo.NumNodes())
	}
	if got := topo.NumBidirectionalLinks(); got != 15 {
		t.Errorf("links = %d, want 15", got)
	}
	if err := topo.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
	// Determinism.
	topo2, _ := Ring(10, 5, 10*unit.Mbps, 1)
	var b1, b2 bytes.Buffer
	if err := Write(&b1, topo); err != nil {
		t.Fatal(err)
	}
	if err := Write(&b2, topo2); err != nil {
		t.Fatal(err)
	}
	if b1.String() != b2.String() {
		t.Error("Ring not deterministic for fixed seed")
	}
	if _, err := Ring(2, 0, 10*unit.Mbps, 1); err == nil {
		t.Error("ring with 2 nodes accepted")
	}
}

func TestGridGenerator(t *testing.T) {
	topo, err := Grid(3, 4, 10*unit.Mbps)
	if err != nil {
		t.Fatalf("Grid: %v", err)
	}
	if topo.NumNodes() != 12 {
		t.Errorf("nodes = %d, want 12", topo.NumNodes())
	}
	// Links: horizontal (w-1)*h + vertical w*(h-1) = 2*4 + 3*3 = 17.
	if got := topo.NumBidirectionalLinks(); got != 17 {
		t.Errorf("links = %d, want 17", got)
	}
	if _, err := Grid(1, 5, 10*unit.Mbps); err == nil {
		t.Error("1-wide grid accepted")
	}
}

func TestWaxmanGenerator(t *testing.T) {
	topo, err := Waxman(20, 0.7, 0.4, 10*unit.Mbps, 50*unit.Millisecond, 99)
	if err != nil {
		t.Fatalf("Waxman: %v", err)
	}
	if topo.NumNodes() != 20 {
		t.Errorf("nodes = %d", topo.NumNodes())
	}
	if err := topo.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
	if topo.NumBidirectionalLinks() < 19 {
		t.Errorf("links = %d, want >= spanning chain", topo.NumBidirectionalLinks())
	}
	if _, err := Waxman(1, 0.5, 0.5, 10*unit.Mbps, 50, 1); err == nil {
		t.Error("1-node waxman accepted")
	}
	if _, err := Waxman(5, 0, 0.5, 10*unit.Mbps, 50, 1); err == nil {
		t.Error("alpha=0 accepted")
	}
}

func TestDumbbellGenerator(t *testing.T) {
	topo, err := Dumbbell(3, 100*unit.Mbps, 10*unit.Mbps)
	if err != nil {
		t.Fatalf("Dumbbell: %v", err)
	}
	if topo.NumNodes() != 8 {
		t.Errorf("nodes = %d, want 8", topo.NumNodes())
	}
	id := slices.IndexFunc(topo.Links(), func(l Link) bool {
		return topo.NodeName(l.From) == "hubL" && topo.NodeName(l.To) == "hubR"
	})
	if id < 0 {
		t.Fatal("no bottleneck link")
	}
	if got := topo.Capacity(LinkID(id)); got != 10*unit.Mbps {
		t.Errorf("bottleneck capacity = %v, want 10Mbps", got)
	}
	if _, err := Dumbbell(0, 1, 1); err == nil {
		t.Error("0-leaf dumbbell accepted")
	}
}

func TestParseAndWriteRoundTrip(t *testing.T) {
	src := `
# test topology
topology demo
node A
link A B 100Mbps 10ms
link B C 50Mbps 5ms
oneway C A 25Mbps 2ms
`
	topo, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if topo.Name() != "demo" {
		t.Errorf("Name = %q, want demo", topo.Name())
	}
	if topo.NumNodes() != 3 {
		t.Errorf("nodes = %d, want 3", topo.NumNodes())
	}
	var buf bytes.Buffer
	if err := Write(&buf, topo); err != nil {
		t.Fatalf("Write: %v", err)
	}
	topo2, err := Parse(&buf)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, buf.String())
	}
	if topo2.NumNodes() != topo.NumNodes() || topo2.NumLinks() != topo.NumLinks() {
		t.Errorf("round trip changed shape: %s vs %s", topo.Summary(), topo2.Summary())
	}
	var buf2 bytes.Buffer
	if err := Write(&buf2, topo2); err != nil {
		t.Fatal(err)
	}
	if buf2.String() == "" {
		t.Error("second write empty")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",                              // empty
		"frobnicate A B",                // unknown directive
		"link A B 100Mbps",              // missing delay
		"link A B wat 10ms",             // bad capacity
		"link A B 100Mbps wat",          // bad delay
		"node",                          // missing name
		"topology x\ntopology y",        // duplicate topology line
		"node A\ntopology late",         // topology not first
		"topology a b",                  // extra field
		"link A A 10Mbps 1ms",           // self link (caught at Build)
		"oneway A B 10Mbps 1ms\nnode C", // disconnected
	}
	for _, src := range cases {
		if _, err := Parse(strings.NewReader(src)); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestHEWriteParseRoundTrip(t *testing.T) {
	topo, err := HurricaneElectric(100 * unit.Mbps)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, topo); err != nil {
		t.Fatal(err)
	}
	topo2, err := Parse(&buf)
	if err != nil {
		t.Fatalf("reparse HE: %v", err)
	}
	if topo2.NumNodes() != 31 || topo2.NumBidirectionalLinks() != 56 {
		t.Errorf("round trip shape: %s", topo2.Summary())
	}
}

func TestSRLGs(t *testing.T) {
	topo := triangle(t)
	if got := topo.SRLGs(); len(got) != 0 {
		t.Fatalf("fresh topology has %d SRLGs", len(got))
	}
	groups := []SRLG{
		{Name: "conduit-ab-bc", Links: []LinkID{0, 2}},
		{Name: "span-ac", Links: []LinkID{4}},
	}
	st, err := topo.WithSRLGs(groups)
	if err != nil {
		t.Fatalf("WithSRLGs: %v", err)
	}
	if got := st.SRLGs(); len(got) != 2 || got[0].Name != "conduit-ab-bc" || len(got[0].Links) != 2 {
		t.Fatalf("SRLGs = %+v", got)
	}
	if _, ok := st.SRLGByName("span-ac"); !ok {
		t.Fatal("SRLGByName missed a declared group")
	}
	if _, ok := st.SRLGByName("nope"); ok {
		t.Fatal("SRLGByName invented a group")
	}
	// Mutating the input must not affect the topology's copy.
	groups[0].Links[0] = 5
	if st.SRLGs()[0].Links[0] != 0 {
		t.Fatal("WithSRLGs aliased the caller's link slice")
	}

	// Groups survive capacity derivations.
	caps := make([]unit.Bandwidth, st.NumLinks())
	for i := range caps {
		caps[i] = 1 * unit.Mbps
	}
	for name, derive := range map[string]func() (*Topology, error){
		"WithUniformCapacity": func() (*Topology, error) { return st.WithUniformCapacity(unit.Mbps) },
		"WithLinkCapacity":    func() (*Topology, error) { return st.WithLinkCapacity(0, unit.Mbps) },
		"WithCapacities":      func() (*Topology, error) { return st.WithCapacities(caps) },
	} {
		d, err := derive()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(d.SRLGs()) != 2 {
			t.Errorf("%s dropped SRLGs", name)
		}
	}

	// Validation.
	for name, bad := range map[string][]SRLG{
		"empty name":        {{Links: []LinkID{0}}},
		"duplicate name":    {{Name: "x", Links: []LinkID{0}}, {Name: "x", Links: []LinkID{1}}},
		"no links":          {{Name: "x"}},
		"out of range link": {{Name: "x", Links: []LinkID{LinkID(topo.NumLinks())}}},
	} {
		if _, err := topo.WithSRLGs(bad); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

package main

import (
	"io"
	"strings"
	"testing"

	"fubar"
)

func TestGenerateKinds(t *testing.T) {
	cases := []struct {
		kind string
		ok   bool
	}{
		{"he", true},
		{"ring", true},
		{"grid", true},
		{"waxman", true},
		{"dumbbell", true},
		{"bogus", false},
	}
	for _, c := range cases {
		err := generate(io.Discard, c.kind, "10Mbps", 8, 3, 3, 3, 0.7, 0.4, "40ms", 1)
		if c.ok && err != nil {
			t.Errorf("generate(%q) failed: %v", c.kind, err)
		}
		if !c.ok && err == nil {
			t.Errorf("generate(%q) succeeded, want error", c.kind)
		}
	}
}

func TestGenerateBadInputs(t *testing.T) {
	if err := generate(io.Discard, "ring", "notabandwidth", 8, 3, 3, 3, 0.7, 0.4, "40ms", 1); err == nil {
		t.Error("bad capacity accepted")
	}
	if err := generate(io.Discard, "waxman", "10Mbps", 8, 3, 3, 3, 0.7, 0.4, "fast", 1); err == nil {
		t.Error("bad delay accepted")
	}
	if err := generate(io.Discard, "ring", "10Mbps", 2, 0, 3, 3, 0.7, 0.4, "40ms", 1); err == nil {
		t.Error("2-node ring accepted")
	}
}

// TestGeneratePresetGolden pins the preset output header: the two
// comment lines carry everything needed to regenerate the benchmark
// instance (preset name, seed, sizes, Waxman parameters and the
// ScaleInstance call), and the first directive names the topology. A
// change here silently breaks the reproducibility of benchmark/'s
// cold-scale-* records.
func TestGeneratePresetGolden(t *testing.T) {
	var sb strings.Builder
	if err := generatePreset(&sb, "scale-xs", 1); err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitN(sb.String(), "\n", 4)
	if len(lines) < 4 {
		t.Fatalf("preset output too short:\n%s", sb.String())
	}
	want := []string{
		"# preset scale-xs seed 1: 50 nodes, 400 sparse aggregates",
		`# waxman alpha 0.4 beta 0.15, capacity 4Mbps; matrix: fubar.ScaleInstance("scale-xs", 1)`,
		"topology waxman50",
	}
	for i, w := range want {
		if lines[i] != w {
			t.Errorf("preset header line %d = %q, want %q", i, lines[i], w)
		}
	}
	// The emitted file must parse back into the same topology the preset
	// generates directly.
	parsed, err := fubar.ParseTopology(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	p, err := fubar.ScalePresetByName("scale-xs")
	if err != nil {
		t.Fatal(err)
	}
	direct, err := p.Topology(1)
	if err != nil {
		t.Fatal(err)
	}
	if parsed.NumNodes() != direct.NumNodes() || parsed.NumLinks() != direct.NumLinks() {
		t.Errorf("parsed preset topology %d nodes/%d links, direct generation %d/%d",
			parsed.NumNodes(), parsed.NumLinks(), direct.NumNodes(), direct.NumLinks())
	}
}

func TestGeneratePresetUnknown(t *testing.T) {
	if err := generatePreset(io.Discard, "scale-xxl", 1); err == nil {
		t.Error("unknown preset accepted")
	}
}

package instance

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"fubar/internal/topology"
	"fubar/internal/traffic"
)

// digest is an instance's fingerprint: the topology's text form, its links
// and shared-risk groups at full precision, and every aggregate — flow
// count, class, utility curves and weight included.
func digest(topo *topology.Topology, mat *traffic.Matrix) string {
	h := sha256.New()
	if err := topology.Write(h, topo); err != nil {
		panic(err)
	}
	for _, l := range topo.Links() {
		fmt.Fprintf(h, "%+v\n", l)
	}
	for _, g := range topo.SRLGs() {
		fmt.Fprintf(h, "%+v\n", g)
	}
	for _, a := range mat.Aggregates() {
		fmt.Fprintf(h, "%+v\n", a)
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

// TestCatalogueDigestsPinned pins every catalogue instance the benchmark,
// the daemon and the tests use to the digest recorded when the catalogue
// moved here from the producers that drew them before: a change to a
// generator, the calibration or a preset's parameters that alters any
// instance fails it, and every number measured on that instance with it.
// Pinned digests are regenerated identically in every run, and the cold
// shape's eight matrices over one topology show that the seed is drawn
// from; scale-s at seed 1 is its matrix 2 (Scale draws matrix seed+1).
func TestCatalogueDigestsPinned(t *testing.T) {
	pin := func(name, want string) func(*topology.Topology, *traffic.Matrix, error) {
		return func(topo *topology.Topology, mat *traffic.Matrix, err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if got := digest(topo, mat); got != want {
				t.Errorf("%s: digest %s, want %s", name, got, want)
			}
		}
	}
	pin("hebench seed 1", "66f46bd5e7a5acee")(HEBench(1))
	pin("hebench seed 5", "1a59f7c13ea3d820")(HEBench(5))
	pin("scale-xs seed 1", "27de043f4cc64819")(Scale("scale-xs", 1))
	pin("scale-s seed 1", "a283178506abac10")(Scale("scale-s", 1))
	pin("scale-m seed 1", "ff1434b59cb88295")(Scale("scale-m", 1))
	pin("scale-l seed 1", "e08a302f06df52f7")(Scale("scale-l", 1))
	pin("soak seed 1", "71126d63bea85ad3")(Soak(1))

	// The cold benchmark's shape: scale-s topology seed 1 under matrices 1–8.
	p, err := ScalePresetByName("scale-s")
	if err != nil {
		t.Fatal(err)
	}
	topo, err := p.Topology(1)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{
		"61fb1ce4901a763e", "a283178506abac10", "be8097a0635b1053", "22057e6d87509f38",
		"3028ad69e81d870d", "ae0a98a2d9fe700d", "b0037076a1d0a9aa", "0ca505081026d77e",
	} {
		mat, err := p.Matrix(topo, int64(i+1))
		pin(fmt.Sprintf("cold matrix %d", i+1), want)(topo, mat, err)
	}
}

// TestScalePresetRegistry checks the registry lookups and that the
// presets ascend in size.
func TestScalePresetRegistry(t *testing.T) {
	names := ScalePresetNames()
	if len(names) < 4 {
		t.Fatalf("got %d presets, want >= 4", len(names))
	}
	prev := ScalePreset{}
	for _, name := range names {
		p, err := ScalePresetByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if p.Nodes <= prev.Nodes || p.Aggregates <= prev.Aggregates {
			t.Errorf("preset %s (%d nodes, %d aggs) not larger than %s (%d, %d)",
				p.Name, p.Nodes, p.Aggregates, prev.Name, prev.Nodes, prev.Aggregates)
		}
		prev = p
	}
	if _, err := ScalePresetByName("scale-xxl"); err == nil {
		t.Fatal("unknown preset name did not error")
	}
}

// TestScaleInstanceDeterministic draws scale-xs twice at a seed no digest
// pins: the two draws must agree bit for bit, carry the preset's 400
// aggregates, and differ from the next seed's draw.
func TestScaleInstanceDeterministic(t *testing.T) {
	draw := func(seed int64) (string, int) {
		topo, mat, err := Scale("scale-xs", seed)
		if err != nil {
			t.Fatal(err)
		}
		return digest(topo, mat), len(mat.Aggregates())
	}
	a, n := draw(7)
	if n != 400 {
		t.Fatalf("scale-xs seed 7: %d aggregates, want 400", n)
	}
	if b, _ := draw(7); b != a {
		t.Errorf("scale-xs seed 7 drew %s then %s", a, b)
	}
	if c, _ := draw(8); c == a {
		t.Error("scale-xs seeds 7 and 8 drew the same instance")
	}
}

package traffic

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"fubar/internal/topology"
	"fubar/internal/unit"
	"fubar/internal/utility"
)

func testTopo(t *testing.T) *topology.Topology {
	t.Helper()
	b := topology.NewBuilder("t3")
	b.AddLink("A", "B", 100*unit.Mbps, 5*unit.Millisecond)
	b.AddLink("B", "C", 100*unit.Mbps, 5*unit.Millisecond)
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func TestAggregateDemand(t *testing.T) {
	a := Aggregate{Class: utility.ClassRealTime, Flows: 10, Fn: utility.RealTime()}
	if got := a.DemandPerFlow(); got != 50*unit.Kbps {
		t.Errorf("DemandPerFlow = %v, want 50kbps", got)
	}
	if got := a.Demand(); got != 500*unit.Kbps {
		t.Errorf("Demand = %v, want 500kbps", got)
	}
}

func TestNewMatrixAssignsIDsAndWeights(t *testing.T) {
	topo := testTopo(t)
	m, err := NewMatrix(topo, []Aggregate{
		{Src: 0, Dst: 1, Class: utility.ClassBulk, Flows: 5, Fn: utility.Bulk()},
		{Src: 1, Dst: 2, Class: utility.ClassRealTime, Flows: 3, Fn: utility.RealTime()},
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Aggregate(0).ID != 0 || m.Aggregate(1).ID != 1 {
		t.Error("IDs not dense")
	}
	if m.Aggregate(0).Weight != 1 {
		t.Error("default weight not applied")
	}
	if m.NumAggregates() != 2 {
		t.Errorf("NumAggregates = %d", m.NumAggregates())
	}
	if m.TotalFlows() != 8 {
		t.Errorf("TotalFlows = %d, want 8", m.TotalFlows())
	}
}

// TestRebuildMatchesNewMatrix holds one matrix rebuilt over a sequence of
// instances — growing, shrinking, on another topology, with unset and set
// weights — to the matrix NewMatrix builds from the same aggregates:
// aggregate for aggregate, topology and validation alike. A refused
// aggregate list fails both, and the next rebuild recovers. The rebuilt
// matrix keeps no reference to the caller's list.
func TestRebuildMatchesNewMatrix(t *testing.T) {
	var kept Matrix
	for i := 0; i < 24; i++ {
		topo, err := topology.Ring(4+i%4, i%2, 500*unit.Kbps, int64(i))
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultGenConfig(int64(i))
		cfg.IncludeSelfPairs = i%3 == 0
		gen, err := Generate(topo, cfg)
		if err != nil {
			t.Fatal(err)
		}
		aggs := gen.Aggregates()
		aggs = aggs[:1+(i*7)%len(aggs)]
		for j := range aggs {
			aggs[j].ID = AggregateID(100 + j) // NewMatrix re-densifies
			if j%2 == 0 {
				aggs[j].Weight = 0 // NewMatrix defaults it
			}
		}
		if i%5 == 4 {
			aggs[len(aggs)-1].Flows = 0 // refused by both
		}
		want, wantErr := NewMatrix(topo, aggs)
		gotErr := Rebuild(&kept, topo, aggs)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("instance %d: Rebuild error %v, NewMatrix error %v", i, gotErr, wantErr)
		}
		if wantErr != nil {
			continue
		}
		if kept.Topology() != want.Topology() || !reflect.DeepEqual(kept.Aggregates(), want.Aggregates()) {
			t.Fatalf("instance %d: the rebuilt matrix differs from NewMatrix's", i)
		}
		aggs[0].Flows++
		if kept.Aggregate(0).Flows != want.Aggregate(0).Flows {
			t.Fatalf("instance %d: the rebuilt matrix shares the caller's aggregate list", i)
		}
	}
}

func TestMatrixValidation(t *testing.T) {
	topo := testTopo(t)
	cases := []Aggregate{
		{Src: 0, Dst: 9, Flows: 1, Fn: utility.Bulk()},             // bad dst
		{Src: -1, Dst: 1, Flows: 1, Fn: utility.Bulk()},            // bad src
		{Src: 0, Dst: 1, Flows: 0, Fn: utility.Bulk()},             // zero flows
		{Src: 0, Dst: 1, Flows: 1, Weight: -2, Fn: utility.Bulk()}, // negative weight
		{Src: 0, Dst: 1, Flows: 1},                                 // missing Fn
	}
	for i, a := range cases {
		if _, err := NewMatrix(topo, []Aggregate{a}); err == nil {
			t.Errorf("case %d: invalid aggregate accepted", i)
		}
	}
}

func TestTotalDemandExcludesSelfPairs(t *testing.T) {
	topo := testTopo(t)
	m, err := NewMatrix(topo, []Aggregate{
		{Src: 0, Dst: 0, Class: utility.ClassBulk, Flows: 100, Fn: utility.Bulk()},
		{Src: 0, Dst: 1, Class: utility.ClassBulk, Flows: 1, Fn: utility.Bulk()},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.TotalDemand(); got != 200*unit.Kbps {
		t.Errorf("TotalDemand = %v, want 200kbps (self-pair excluded)", got)
	}
	if !m.Aggregate(0).IsSelfPair() || m.Aggregate(1).IsSelfPair() {
		t.Error("IsSelfPair wrong")
	}
}

func TestWithWeights(t *testing.T) {
	topo := testTopo(t)
	m, _ := NewMatrix(topo, []Aggregate{
		{Src: 0, Dst: 1, Class: utility.ClassLargeFile, Flows: 2, Fn: utility.LargeFile(1000)},
		{Src: 1, Dst: 2, Class: utility.ClassBulk, Flows: 5, Fn: utility.Bulk()},
	})
	w, err := m.WithWeights(func(a Aggregate) float64 {
		if a.Class == utility.ClassLargeFile {
			return 8
		}
		return 1
	})
	if err != nil {
		t.Fatal(err)
	}
	if w.Aggregate(0).Weight != 8 || w.Aggregate(1).Weight != 1 {
		t.Error("weights not applied")
	}
	// Original untouched.
	if m.Aggregate(0).Weight != 1 {
		t.Error("WithWeights mutated original")
	}
	if _, err := m.WithWeights(func(Aggregate) float64 { return 0 }); err == nil {
		t.Error("zero weight accepted")
	}
}

func TestWithDelayScaled(t *testing.T) {
	topo := testTopo(t)
	m, _ := NewMatrix(topo, []Aggregate{
		{Src: 0, Dst: 1, Class: utility.ClassRealTime, Flows: 2, Fn: utility.RealTime()},
		{Src: 1, Dst: 2, Class: utility.ClassLargeFile, Flows: 2, Fn: utility.LargeFile(1000)},
	})
	s, err := m.WithDelayScaled(2, func(a Aggregate) bool { return a.Class != utility.ClassLargeFile })
	if err != nil {
		t.Fatal(err)
	}
	// Real-time delay cliff moved from 100ms to 200ms.
	if got := s.Aggregate(0).Fn.EvalDelay(150 * unit.Millisecond); got <= 0 {
		t.Errorf("scaled RT delay(150ms) = %v, want > 0", got)
	}
	// Large-file untouched.
	orig := m.Aggregate(1).Fn.EvalDelay(1500 * unit.Millisecond)
	scaled := s.Aggregate(1).Fn.EvalDelay(1500 * unit.Millisecond)
	if math.Abs(orig-scaled) > 1e-12 {
		t.Error("unselected aggregate was rescaled")
	}
	if _, err := m.WithDelayScaled(-1, func(Aggregate) bool { return true }); err == nil {
		t.Error("negative factor accepted")
	}
}

func TestGenerateShape(t *testing.T) {
	topo, err := topology.HurricaneElectric(100 * unit.Mbps)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultGenConfig(1)
	m, err := Generate(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.NumAggregates(); got != 961 {
		t.Errorf("aggregates = %d, want 961 (31x31 with self-pairs)", got)
	}
	rt := m.CountClass(utility.ClassRealTime)
	bulk := m.CountClass(utility.ClassBulk)
	large := m.CountClass(utility.ClassLargeFile)
	if rt+bulk+large != 961 {
		t.Errorf("class counts %d+%d+%d != 961", rt, bulk, large)
	}
	// 2% large: expect ~19, allow generous slack.
	if large < 5 || large > 50 {
		t.Errorf("large aggregates = %d, want ~19", large)
	}
	// Roughly balanced RT/bulk.
	if rt < 350 || bulk < 350 {
		t.Errorf("rt=%d bulk=%d, want roughly balanced", rt, bulk)
	}
	checkDrawRanges(t, cfg, 961)
}

// checkDrawRanges draws n aggregates straight from cfg's class mix and
// fails on a flow count outside its class's range. Generate and Sparse
// scale every drawn count by gravity, so their matrices cannot show this.
func checkDrawRanges(t *testing.T, cfg GenConfig, n int) {
	t.Helper()
	rng := rand.New(rand.NewSource(cfg.Seed))
	for i := 0; i < n; i++ {
		a := drawAggregate(rng, cfg)
		var r [2]int
		switch a.Class {
		case utility.ClassRealTime:
			r = cfg.RealTimeFlows
		case utility.ClassBulk:
			r = cfg.BulkFlows
		case utility.ClassLargeFile:
			r = cfg.LargeFlows
		}
		if a.Flows < r[0] || a.Flows > r[1] {
			t.Fatalf("draw %d class %v flows %d outside %v", i, a.Class, a.Flows, r)
		}
	}
}

// TestLargeAggregatesShareTheirFunction: two large-file aggregates drawn
// with the same peak hold one function, so a matrix builds no curve per
// aggregate.
func TestLargeAggregatesShareTheirFunction(t *testing.T) {
	storage := func(fn utility.Function) uintptr {
		return reflect.ValueOf(fn).FieldByName("bandwidth").FieldByName("pts").Pointer()
	}
	byPeak := map[unit.Bandwidth]uintptr{}
	rng := rand.New(rand.NewSource(1))
	shared := 0
	for i := 0; i < 5000; i++ {
		a := drawAggregate(rng, DefaultGenConfig(1))
		if a.Class != utility.ClassLargeFile {
			continue
		}
		peak := a.Fn.PeakBandwidth()
		if p, ok := byPeak[peak]; !ok {
			byPeak[peak] = storage(a.Fn)
		} else if p != storage(a.Fn) {
			t.Fatalf("draw %d: a large aggregate with peak %v built its own curves", i, peak)
		} else {
			shared++
		}
	}
	if len(byPeak) != len(largePeaks) || shared == 0 {
		t.Fatalf("%d peaks drawn, %d shared functions: the draws test nothing", len(byPeak), shared)
	}
}

func TestGravitySkew(t *testing.T) {
	topo, err := topology.HurricaneElectric(100 * unit.Mbps)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultGenConfig(2)
	mSkew, err := Generate(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The flat matrix draws the same class mix over the same pairs with
	// no gravity.
	rng := rand.New(rand.NewSource(cfg.Seed))
	var flat []Aggregate
	for src := 0; src < topo.NumNodes(); src++ {
		for dst := 0; dst < topo.NumNodes(); dst++ {
			a := drawAggregate(rng, cfg)
			a.Src, a.Dst = topology.NodeID(src), topology.NodeID(dst)
			flat = append(flat, a)
		}
	}
	mFlat, err := NewMatrix(topo, flat)
	if err != nil {
		t.Fatal(err)
	}
	// Total demand stays in the same ballpark (mass normalization).
	ratio := float64(mSkew.TotalDemand()) / float64(mFlat.TotalDemand())
	if ratio < 0.5 || ratio > 2.0 {
		t.Errorf("gravity changed total demand by %.2fx, want roughly constant", ratio)
	}
	// Skew increases the spread of per-aggregate demand.
	spread := func(m *Matrix) float64 {
		var max, sum float64
		n := 0
		for _, a := range m.Aggregates() {
			if a.IsSelfPair() {
				continue
			}
			d := float64(a.Demand())
			if d > max {
				max = d
			}
			sum += d
			n++
		}
		return max / (sum / float64(n))
	}
	if spread(mSkew) <= spread(mFlat) {
		t.Errorf("gravity did not increase demand spread: %.2f vs %.2f",
			spread(mSkew), spread(mFlat))
	}
}

func TestGenerateDeterminism(t *testing.T) {
	topo, _ := topology.HurricaneElectric(100 * unit.Mbps)
	m1, err := Generate(topo, DefaultGenConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	m2, _ := Generate(topo, DefaultGenConfig(7))
	if m1.Summary() != m2.Summary() {
		t.Fatalf("same seed, different matrices:\n%s\n%s", m1.Summary(), m2.Summary())
	}
	a1, a2 := m1.Aggregates(), m2.Aggregates()
	for i := range a1 {
		if a1[i].Class != a2[i].Class || a1[i].Flows != a2[i].Flows {
			t.Fatalf("aggregate %d differs across runs", i)
		}
	}
	m3, _ := Generate(topo, DefaultGenConfig(8))
	if m1.Summary() == m3.Summary() {
		t.Error("different seeds produced identical matrices (suspicious)")
	}
}

func TestGenerateExcludeSelfPairs(t *testing.T) {
	topo := testTopo(t)
	cfg := DefaultGenConfig(3)
	cfg.IncludeSelfPairs = false
	m, err := Generate(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.NumAggregates(); got != 6 {
		t.Errorf("aggregates = %d, want 6 (3x2)", got)
	}
	for _, a := range m.Aggregates() {
		if a.IsSelfPair() {
			t.Error("self pair present despite IncludeSelfPairs=false")
		}
	}
}

func TestGenConfigValidation(t *testing.T) {
	topo := testTopo(t)
	bad := []GenConfig{
		{RealTimeFlows: [2]int{0, 2}, BulkFlows: [2]int{1, 2}, LargeFlows: [2]int{1, 2}},
		{RealTimeFlows: [2]int{5, 2}, BulkFlows: [2]int{1, 2}, LargeFlows: [2]int{1, 2}},
		{RealTimeFlows: [2]int{1, 2}, BulkFlows: [2]int{1, 2}, LargeFlows: [2]int{-1, 2}},
	}
	for i, cfg := range bad {
		if _, err := Generate(topo, cfg); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

func TestSummaryMentionsComposition(t *testing.T) {
	topo := testTopo(t)
	m, err := NewMatrix(topo, []Aggregate{
		{Src: 0, Dst: 1, Class: utility.ClassRealTime, Flows: 2, Fn: utility.RealTime(), Weight: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	s := m.Summary()
	if s == "" {
		t.Fatal("empty summary")
	}
}

func TestSubset(t *testing.T) {
	topo := testTopo(t)
	m, err := NewMatrix(topo, []Aggregate{
		{Src: 0, Dst: 1, Class: utility.ClassBulk, Flows: 5, Fn: utility.Bulk(), Weight: 2},
		{Src: 1, Dst: 2, Class: utility.ClassRealTime, Flows: 3, Fn: utility.RealTime()},
		{Src: 2, Dst: 0, Class: utility.ClassBulk, Flows: 7, Fn: utility.Bulk(), Weight: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	bulk, err := m.Subset(func(a Aggregate) bool { return a.Class == utility.ClassBulk })
	if err != nil {
		t.Fatal(err)
	}
	if bulk.NumAggregates() != 2 || bulk.Topology() != topo {
		t.Fatalf("subset has %d aggregates over %v, want 2 over the same topology",
			bulk.NumAggregates(), bulk.Topology())
	}
	// Kept aggregates keep their fields, in order, under dense new IDs.
	for i, want := range []Aggregate{m.Aggregate(0), m.Aggregate(2)} {
		got := bulk.Aggregate(AggregateID(i))
		if got.ID != AggregateID(i) {
			t.Errorf("kept aggregate %d has ID %d", i, got.ID)
		}
		if got.Src != want.Src || got.Dst != want.Dst || got.Flows != want.Flows || got.Weight != want.Weight {
			t.Errorf("kept aggregate %d = %+v, want the fields of %+v", i, got, want)
		}
	}
	if m.NumAggregates() != 3 || m.Aggregate(2).ID != 2 {
		t.Error("Subset mutated the original")
	}
	if _, err := m.Subset(func(Aggregate) bool { return false }); err == nil {
		t.Error("empty subset accepted")
	}
}

func TestSparseShape(t *testing.T) {
	topo, err := topology.HurricaneElectric(100 * unit.Mbps)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultGenConfig(4)
	m, err := Sparse(topo, cfg, 200)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.NumAggregates(); got != 200 {
		t.Fatalf("aggregates = %d, want 200", got)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	srcs := map[topology.NodeID]bool{}
	for _, a := range m.Aggregates() {
		if a.IsSelfPair() {
			t.Fatalf("aggregate %d is a self pair", a.ID)
		}
		srcs[a.Src] = true
	}
	// 200 uniform draws over 31 sources miss hardly any of them.
	if len(srcs) < 25 {
		t.Errorf("only %d of 31 nodes source an aggregate", len(srcs))
	}
	if rt, bulk := m.CountClass(utility.ClassRealTime), m.CountClass(utility.ClassBulk); rt < 60 || bulk < 60 {
		t.Errorf("rt=%d bulk=%d, want roughly balanced", rt, bulk)
	}
	checkDrawRanges(t, cfg, 200)
}

func TestSparseDeterminism(t *testing.T) {
	topo, err := topology.HurricaneElectric(100 * unit.Mbps)
	if err != nil {
		t.Fatal(err)
	}
	draw := func(seed int64) []Aggregate {
		m, err := Sparse(topo, DefaultGenConfig(seed), 50)
		if err != nil {
			t.Fatal(err)
		}
		return m.Aggregates()
	}
	a, b := draw(9), draw(9)
	for i := range a {
		if a[i].Src != b[i].Src || a[i].Dst != b[i].Dst || a[i].Class != b[i].Class || a[i].Flows != b[i].Flows {
			t.Fatalf("same seed, aggregate %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	c := draw(10)
	same := true
	for i := range a {
		same = same && a[i].Src == c[i].Src && a[i].Dst == c[i].Dst && a[i].Flows == c[i].Flows
	}
	if same {
		t.Error("different seeds produced identical sparse matrices (suspicious)")
	}
}

func TestSparseRejectsBadArguments(t *testing.T) {
	topo := testTopo(t)
	for _, n := range []int{0, -3} {
		if _, err := Sparse(topo, DefaultGenConfig(1), n); err == nil {
			t.Errorf("aggregate count %d accepted", n)
		}
	}
	bad := DefaultGenConfig(1)
	bad.BulkFlows = [2]int{0, 3}
	if _, err := Sparse(topo, bad, 5); err == nil {
		t.Error("invalid config accepted")
	}
	b := topology.NewBuilder("one")
	b.AddNode("A")
	single, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Sparse(single, DefaultGenConfig(1), 5); err == nil {
		t.Error("single-node topology accepted")
	}
}

// TestRandomAggregateFollowsGenerateStream draws aggregates one at a time
// from the seed's stream, after the node masses Generate draws first, and
// expects exactly the classes and per-flow demands Generate assigns to the
// pairs in order, and its flow counts once gravity scales them.
func TestRandomAggregateFollowsGenerateStream(t *testing.T) {
	topo, err := topology.HurricaneElectric(100 * unit.Mbps)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultGenConfig(11)
	m, err := Generate(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	masses := nodeMasses(rng, topo.NumNodes())
	large := 0
	for _, want := range m.Aggregates() {
		got, err := RandomAggregate(rng, cfg)
		if err != nil {
			t.Fatal(err)
		}
		flows := gravityFlows(got.Flows, masses[want.Src], masses[want.Dst])
		if got.Class != want.Class || flows != want.Flows || got.DemandPerFlow() != want.DemandPerFlow() || got.Weight != 1 {
			t.Fatalf("draw %d = %v/%d flows/%v per flow, Generate gave %v/%d flows/%v per flow",
				want.ID, got.Class, flows, got.DemandPerFlow(), want.Class, want.Flows, want.DemandPerFlow())
		}
		if got.Src != 0 || got.Dst != 0 {
			t.Fatalf("draw %d set endpoints %d->%d", want.ID, got.Src, got.Dst)
		}
		if got.Class == utility.ClassLargeFile {
			large++
		}
	}
	if large == 0 {
		t.Error("no large aggregate drawn; the class check covered two classes only")
	}
	bad := cfg
	bad.LargeFlows = [2]int{3, 2}
	if _, err := RandomAggregate(rng, bad); err == nil {
		t.Error("inverted large flow range accepted")
	}
}

package scenario

import (
	"context"
	"runtime"
	"strings"
	"testing"

	"fubar/internal/core"
)

// heapWatermark forces a collection and returns the live heap — the
// soak tests' memory probe. Forcing the GC first makes the number the
// retained watermark rather than allocation noise.
func heapWatermark() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestHeapBoundedNamesTheSample pins the soak envelope both soak legs
// share: up to 1.5 times the first watermark plus 8 MiB passes, one byte
// more is named by its sample, and fewer than three samples prove nothing.
func TestHeapBoundedNamesTheSample(t *testing.T) {
	const mib = 1 << 20
	if err := HeapBounded([]uint64{20 * mib, 38 * mib, 30 * mib}); err != nil {
		t.Errorf("samples at the envelope: %v", err)
	}
	err := HeapBounded([]uint64{20 * mib, 30 * mib, 38*mib + 1, 50 * mib})
	if err == nil || !strings.Contains(err.Error(), "sample 2 =") {
		t.Errorf("a sample one byte past the envelope: %v", err)
	}
	if HeapBounded([]uint64{1, 2}) == nil {
		t.Error("two samples passed")
	}
}

// TestSoakStreamBoundedMemory streams a long sparse soak timeline
// through the plain replay and asserts the forced-GC heap watermark
// stays flat from the first eighth of the replay to the last — the
// O(1)-memory contract of Stream, which the nightly million-epoch soak
// (`fubar-bench -exp soak`) checks at full scale. The epoch count is
// trimmed under -short to fit the PR budget.
func TestSoakStreamBoundedMemory(t *testing.T) {
	epochs := 10000
	if testing.Short() {
		epochs = 2400
	}
	topo, mat := matrixInstance(t)
	sc := Soak(5, epochs, 25)
	interval := epochs / 8
	var samples []uint64
	n := 0
	for er, err := range stream(context.Background(), nil, topo, mat, sc, Options{Core: core.Options{Workers: 2}}) {
		if err != nil {
			t.Fatal(err)
		}
		if err := er.Check(); err != nil {
			t.Fatal(err)
		}
		n++
		if n%interval == 0 {
			samples = append(samples, heapWatermark())
		}
	}
	if n != epochs {
		t.Fatalf("streamed %d epochs, want %d", n, epochs)
	}
	if err := HeapBounded(samples); err != nil {
		t.Fatal(err)
	}
}

// TestSoakClosedLoopBoundedMemory is the closed-loop variant: the full
// control plane (fabric, measurement, wire installs) rides a long soak
// timeline with a flat heap watermark, proving a closed-loop Stream holds
// the same O(1) contract while also keeping its wire ledger reconciled
// every epoch.
func TestSoakClosedLoopBoundedMemory(t *testing.T) {
	epochs := 1600
	if testing.Short() {
		epochs = 480
	}
	topo, mat := matrixInstance(t)
	sc := Soak(7, epochs, 25)
	interval := epochs / 8
	var samples []uint64
	n := 0
	for er, err := range streamClosedLoop(context.Background(), topo, mat, sc, Options{Core: core.Options{Workers: 2}}) {
		if err != nil {
			t.Fatal(err)
		}
		if err := er.Check(); err != nil {
			t.Fatal(err)
		}
		n++
		if n%interval == 0 {
			samples = append(samples, heapWatermark())
		}
	}
	if n != epochs {
		t.Fatalf("streamed %d epochs, want %d", n, epochs)
	}
	if err := HeapBounded(samples); err != nil {
		t.Fatal(err)
	}
}

// TestSoakRecyclesOneBase pins the storage half of the epoch-warm Base
// design: across a replay every epoch runs on the one optimizer the engine
// was lent — which keeps its Base, arenas and path memo for life
// (core.TestOptimizerKeepsItsBase) — so base storage is
// allocated once for the whole soak, not once per epoch.
func TestSoakRecyclesOneBase(t *testing.T) {
	topo, mat := matrixInstance(t)
	sc := Soak(9, 200, 10)
	opts := Options{Core: core.Options{Workers: 1}}
	first, err := newOptimizer(topo, mat, opts)
	if err != nil {
		t.Fatal(err)
	}
	en, err := newEngine(first, nil, topo, mat, sc, opts)
	if err != nil {
		t.Fatal(err)
	}
	tl := en.timeline()
	for epoch := 0; epoch < sc.Epochs; epoch++ {
		events, err := en.applyEpochEvents(tl, epoch)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := en.runEpoch(context.Background(), epoch, events); err != nil {
			t.Fatal(err)
		}
		if en.opt != first {
			t.Fatalf("epoch %d: optimizer rebuilt (%p -> %p) — storage not recycled", epoch, first, en.opt)
		}
	}
}
